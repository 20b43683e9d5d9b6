package parallel

import (
	"context"
	"runtime"
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

// TestPoolSubmitRunsDetachedTask covers the Submit path: the task runs
// exactly once on a pool goroutine and the returned channel closes after it
// finishes.
func TestPoolSubmitRunsDetachedTask(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var ran atomic.Int64
	done := p.Submit(func() { ran.Add(1) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Submit task never completed")
	}
	if ran.Load() != 1 {
		t.Fatalf("Submit ran task %d times", ran.Load())
	}
	// Submitted tasks and fan-outs share the pool without interference.
	var hits atomic.Int64
	done2 := p.Submit(func() { p.ForEachCtx(context.Background(), 32, 2, func(i int) { hits.Add(1) }) })
	<-done2
	if hits.Load() != 32 {
		t.Fatalf("Submit+ForEach composition ran %d of 32 indices", hits.Load())
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
