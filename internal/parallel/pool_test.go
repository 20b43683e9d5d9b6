package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spawnForEach is the pre-pool reference implementation — the per-call
// goroutine fan-out ForEach used before the persistent pool replaced it.
// The pool path must stay bit-identical to it under the disjoint-write
// contract; keeping the old machine here pins that equivalence forever.
func spawnForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// TestPoolGoldenBitIdentityVsSpawningPath drives a deterministic per-index
// computation through the spawning reference and the pooled path for the
// mandated worker counts {1, 2, 0} and demands byte-for-byte equal output.
func TestPoolGoldenBitIdentityVsSpawningPath(t *testing.T) {
	const n = 513
	work := func(dst []int64) func(int) {
		return func(i int) {
			// A few dependent mixes so a mis-claimed or skipped index
			// cannot cancel out.
			v := SplitSeed(1234, i)
			v ^= SplitSeed(v, i+1)
			dst[i] = v
		}
	}
	for _, workers := range []int{1, 2, 0} {
		ref := make([]int64, n)
		spawnForEach(n, workers, work(ref))

		got := make([]int64, n)
		if err := ForEachCtx(context.Background(), n, workers, work(got)); err != nil {
			t.Fatalf("workers=%d: ForEachCtx: %v", workers, err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: ForEachCtx diverges from spawning path at %d: %d != %d",
					workers, i, got[i], ref[i])
			}
		}
	}
}

// TestPoolZeroSteadyStateSpawns asserts the replacement actually happened:
// a warmed-up ForEach over the shared pool leaves the process goroutine
// count exactly where it was — no per-call fan-out goroutines.
func TestPoolZeroSteadyStateSpawns(t *testing.T) {
	// Warm the pool (workers already exist from init, but let any lazy
	// batch descriptors materialize).
	ForEachCtx(context.Background(), 64, 0, func(i int) {})
	before := runtime.NumGoroutine()
	for k := 0; k < 50; k++ {
		ForEachCtx(context.Background(), 64, 0, func(i int) { _ = SplitSeed(int64(k), i) })
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("steady-state ForEach grew goroutines: %d -> %d", before, after)
	}
}

// TestPoolCloseJoinsWorkers is the pool's goroutine-leak check: a private
// pool's workers all exit once Close returns.
func TestPoolCloseJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(4)
	var hits atomic.Int64
	p.ForEachCtx(context.Background(), 100, 4, func(i int) { hits.Add(1) })
	if hits.Load() != 100 {
		t.Fatalf("pool ForEach ran %d of 100 indices", hits.Load())
	}
	p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("pool leaked goroutines after Close: %d -> %d", before, after)
	}
}

// TestPoolForEachCtxCancelMidBatch cancels while a pooled batch is in
// flight: the call must return ctx.Err(), stop claiming new indices, and
// join every in-flight fn before returning (no fn call may be observed
// after ForEachCtx returns).
func TestPoolForEachCtxCancelMidBatch(t *testing.T) {
	const n = 10_000
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished atomic.Int64
	var returned atomic.Bool
	err := ForEachCtx(ctx, n, 4, func(i int) {
		if returned.Load() {
			t.Error("fn observed after ForEachCtx returned")
		}
		if started.Add(1) == 7 {
			cancel() // mid-batch: several indices done, most not yet claimed
		}
		finished.Add(1)
	})
	returned.Store(true)
	if err != context.Canceled {
		t.Fatalf("mid-batch cancel returned %v, want context.Canceled", err)
	}
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("in-flight calls not joined: started %d, finished %d", s, f)
	}
	if done := finished.Load(); done >= n {
		t.Fatalf("cancellation did not halt claiming: all %d indices ran", done)
	}
}

// TestPoolNestedForEachNoDeadlock saturates the pool with fan-outs whose
// fns themselves fan out, twice nested — the shape that deadlocks a pool
// whose join blocks on token consumption. The help-while-waiting join must
// complete every index.
func TestPoolNestedForEachNoDeadlock(t *testing.T) {
	doneCh := make(chan struct{})
	var leaf atomic.Int64
	go func() {
		defer close(doneCh)
		ForEachCtx(context.Background(), 8, 0, func(i int) {
			ForEachCtx(context.Background(), 8, 0, func(j int) {
				ForEachCtx(context.Background(), 8, 0, func(k int) {
					leaf.Add(1)
				})
			})
		})
	}()
	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		t.Fatal("nested ForEach deadlocked the pool")
	}
	if leaf.Load() != 8*8*8 {
		t.Fatalf("nested ForEach ran %d of %d leaves", leaf.Load(), 8*8*8)
	}
}

// TestPoolHelperPanicReachesCaller makes a fan-out's two indices rendezvous,
// so one of them runs on a pool helper, and panic there. The panic must
// come back to the ForEachCtx caller as a *Panic carrying the stack it was
// raised on, and leave the pool whole: the same workers still cover every
// index of the next fan-out, and no goroutine is lost.
func TestPoolHelperPanicReachesCaller(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx := context.Background()
	p.ForEachCtx(ctx, 64, 2, func(i int) {}) // warm the batch free list
	before := runtime.NumGoroutine()

	var arrived atomic.Int32
	both := make(chan struct{})
	fn := func(i int) {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(5 * time.Second):
		}
		panic(fmt.Sprintf("boom %d", i))
	}
	var got any
	func() {
		defer func() { got = recover() }()
		p.ForEachCtx(ctx, 2, 2, fn)
	}()
	if arrived.Load() != 2 {
		t.Fatalf("%d of 2 indices ran: no helper joined the fan-out", arrived.Load())
	}
	pe, ok := got.(*Panic)
	if !ok {
		t.Fatalf("ForEachCtx panicked with %#v, want a *Panic", got)
	}
	if msg := pe.Error(); msg != "boom 0" && msg != "boom 1" {
		t.Fatalf("panic value %q, want one of the indices' panics", msg)
	}
	if !strings.Contains(string(pe.Stack), "TestPoolHelperPanicReachesCaller") {
		t.Fatalf("panic stack lacks the panicking fn:\n%s", pe.Stack)
	}

	counts := make([]int32, 300)
	if err := p.ForEachCtx(ctx, len(counts), 2, func(i int) { atomic.AddInt32(&counts[i], 1) }); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("after the panic, index %d ran %d times", i, c)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() != before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines %d before the panicking fan-out, %d after", before, after)
	}
}

// TestPoolHelpingCallerRecordsOthersPanic pins where a panic lands when the
// goroutine that raises it is another caller helping while it waits. Caller
// A's fan-out parks the pool's only worker, so A sits in its join; caller
// B's two indices then rendezvous, so one of them runs on A, and panic. B
// must re-panic with it, and A must finish its own fan-out normally.
func TestPoolHelpingCallerRecordsOthersPanic(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ctx := context.Background()
	onWorker := func() bool { return strings.Contains(string(debug.Stack()), "(*Pool).worker") }
	wait := func(ch <-chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Errorf("timed out waiting for %s", what)
		}
	}

	workerIn, gate := make(chan struct{}), make(chan struct{})
	aDone := make(chan any, 1)
	go func() {
		defer func() { aDone <- recover() }()
		err := p.ForEachCtx(ctx, 2, 2, func(i int) {
			if onWorker() {
				close(workerIn)
				<-gate
				return
			}
			wait(workerIn, "the worker to take A's other index")
		})
		if err != nil {
			panic(err)
		}
	}()
	wait(workerIn, "the worker to take A's other index")

	var arrived atomic.Int32
	both := make(chan struct{})
	var got any
	func() {
		defer func() { got = recover() }()
		p.ForEachCtx(ctx, 2, 2, func(i int) {
			if arrived.Add(1) == 2 {
				close(both)
			}
			wait(both, "B's indices to rendezvous")
			panic("boom")
		})
	}()
	close(gate)
	if pe, ok := got.(*Panic); !ok || pe.Value != "boom" {
		t.Fatalf("B's ForEachCtx panicked with %#v, want a *Panic of \"boom\"", got)
	}
	select {
	case r := <-aDone:
		if r != nil {
			t.Fatalf("caller A unwound with %v while helping B", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("caller A never finished its fan-out")
	}
}

// TestPoolForEachConcurrentCallers hammers one pool from many goroutines at
// once: every caller's batch must complete exactly, with no cross-batch
// index bleed.
func TestPoolForEachConcurrentCallers(t *testing.T) {
	const callers = 16
	const n = 300
	var wg sync.WaitGroup
	wg.Add(callers)
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			counts := make([]int32, n)
			ForEachCtx(context.Background(), n, 3, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, v := range counts {
				if v != 1 {
					errs <- "caller " + string(rune('a'+c)) + ": bad visit count at index " +
						string(rune('0'+i%10))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
