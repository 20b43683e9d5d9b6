package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefaults(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("auto worker count must be >= 1")
	}
	if Workers(5) != 5 {
		t.Fatal("explicit worker count must pass through")
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 1000
		counts := make([]int32, n)
		ForEachCtx(context.Background(), n, workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmptyAndTiny(t *testing.T) {
	ForEachCtx(context.Background(), 0, 4, func(i int) { t.Fatal("fn called for n=0") })
	var ran int
	ForEachCtx(context.Background(), 1, 8, func(i int) { ran++ })
	if ran != 1 {
		t.Fatalf("n=1 ran %d times", ran)
	}
}

func TestForEachResultIndependentOfWorkers(t *testing.T) {
	const n = 256
	ref := make([]int64, n)
	ForEachCtx(context.Background(), n, 1, func(i int) { ref[i] = SplitSeed(42, i) })
	for _, workers := range []int{2, 3, 8} {
		got := make([]int64, n)
		ForEachCtx(context.Background(), n, workers, func(i int) { got[i] = SplitSeed(42, i) })
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d differs", workers, i)
			}
		}
	}
}

func TestGroupCollectsFirstError(t *testing.T) {
	g := NewGroup(2)
	boom := errors.New("boom")
	var ran atomic.Int32
	for i := 0; i < 8; i++ {
		i := i
		g.GoCtx(context.Background(), func() error {
			ran.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		})
	}
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait() = %v, want boom", err)
	}
	if ran.Load() != 8 {
		t.Fatalf("ran %d tasks, want all 8 despite the error", ran.Load())
	}
}

func TestGroupNoError(t *testing.T) {
	g := NewGroup(0)
	var sum atomic.Int64
	for i := 1; i <= 10; i++ {
		i := i
		g.GoCtx(context.Background(), func() error { sum.Add(int64(i)); return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 55 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestGroupBoundedConcurrency(t *testing.T) {
	const workers = 3
	g := NewGroup(workers)
	var inFlight, peak atomic.Int32
	for i := 0; i < 30; i++ {
		g.GoCtx(context.Background(), func() error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			inFlight.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > workers {
		t.Fatalf("observed %d concurrent tasks, cap %d", peak.Load(), workers)
	}
}

func TestForEachCtxBackgroundCompletes(t *testing.T) {
	const n = 300
	counts := make([]int32, n)
	if err := ForEachCtx(context.Background(), n, 4, func(i int) {
		atomic.AddInt32(&counts[i], 1)
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForEachCtxCancelHaltsEarly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 100000
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEachCtx(ctx, n, workers, func(i int) {
			if ran.Add(1) == 50 {
				cancel()
			}
			time.Sleep(10 * time.Microsecond)
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// In-flight iterations (at most one per worker) may still finish,
		// but the fan-out must stop long before visiting all n indices.
		if got := ran.Load(); got >= n {
			t.Fatalf("workers=%d: ran all %d iterations despite cancellation", workers, got)
		}
	}
}

func TestForEachCtxAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachCtx(ctx, 100, 4, func(i int) { t.Error("fn ran under a canceled context") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestGroupGoCtxStopsSchedulingAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := NewGroup(2)
	var ran atomic.Int32
	for i := 0; i < 20; i++ {
		if i == 5 {
			cancel()
		}
		g.GoCtx(ctx, func() error { ran.Add(1); return nil })
	}
	err := g.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait() = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got > 5 {
		t.Fatalf("%d tasks ran after cancellation (want <= 5 scheduled before)", got)
	}
}

func TestGroupGoCtxUnblocksFullPoolOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(1)
	release := make(chan struct{})
	g.GoCtx(ctx, func() error { <-release; return nil })
	done := make(chan struct{})
	go func() {
		// The pool is full; this schedule attempt must return once the
		// context is canceled instead of blocking forever.
		g.GoCtx(ctx, func() error { t.Error("task ran after cancel"); return nil })
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("GoCtx stayed blocked on a full pool after cancellation")
	}
	close(release)
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait() = %v, want context.Canceled", err)
	}
}

func TestSplitSeedDistinctAndStable(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 10000; i++ {
		s := SplitSeed(7, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("streams %d and %d collide", i, j)
		}
		seen[s] = i
	}
	if SplitSeed(7, 3) != SplitSeed(7, 3) {
		t.Fatal("SplitSeed is not a pure function")
	}
	if SplitSeed(7, 3) == SplitSeed(8, 3) {
		t.Fatal("base seed ignored")
	}
}
