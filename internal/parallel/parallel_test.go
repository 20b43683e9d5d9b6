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

// The Group tests below pin the properties the removed errgroup-style Group
// used to provide, now carried by ForEachCtx with per-index result and error
// slots — the pattern every heterogeneous fan-out in the tree follows.

// TestGroupCollectsFirstError: a failing index does not stop the others, and
// scanning the error slots in index order reports index 3's error even
// though index 6 fails first.
func TestGroupCollectsFirstError(t *testing.T) {
	errs := make([]error, 8)
	var ran atomic.Int32
	late, early := errors.New("index 3"), errors.New("index 6")
	sixDone := make(chan struct{})
	err := ForEachCtx(context.Background(), len(errs), 2, func(i int) {
		ran.Add(1)
		switch i {
		case 3:
			select { // finish after index 6 whenever a second participant runs it
			case <-sixDone:
			case <-time.After(time.Second):
			}
			errs[i] = late
		case 6:
			errs[i] = early
			close(sixDone)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("ran %d indices, want all 8 despite the errors", ran.Load())
	}
	var first error
	for _, e := range errs {
		if e != nil {
			first = e
			break
		}
	}
	if first != late {
		t.Fatalf("first error slot = %v, want %v", first, late)
	}
}

// TestGroupNoError: every index runs once and writes its own slot.
func TestGroupNoError(t *testing.T) {
	slots := make([]int64, 10)
	if err := ForEachCtx(context.Background(), len(slots), 0, func(i int) {
		slots[i] += int64(i + 1)
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range slots {
		if v != int64(i+1) {
			t.Fatalf("slot %d = %d, want %d (one write by its own index)", i, v, i+1)
		}
	}
}

// TestGroupBoundedConcurrency: no more than the requested width of calls is
// ever in flight, on the shared pool and on a pool wider than the request.
func TestGroupBoundedConcurrency(t *testing.T) {
	const workers = 3
	wide := NewPool(8)
	defer wide.Close()
	for name, fe := range map[string]func(context.Context, int, int, func(int)) error{
		"shared": ForEachCtx,
		"wide":   wide.ForEachCtx,
	} {
		var inFlight, peak atomic.Int32
		if err := fe(context.Background(), 30, workers, func(i int) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
		}); err != nil {
			t.Fatal(err)
		}
		if peak.Load() > workers {
			t.Fatalf("%s: observed %d concurrent calls, cap %d", name, peak.Load(), workers)
		}
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

// TestGroupGoCtxStopsSchedulingAfterCancel: once index 5 cancels, no index
// starts. Inline (width 1) that is exact; wider, a participant that checked
// ctx just before the cancel may still claim one more index, so at most one
// start per other participant sees the canceled context.
func TestGroupGoCtxStopsSchedulingAfterCancel(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran, late atomic.Int32
		err := ForEachCtx(ctx, 20, workers, func(i int) {
			if ctx.Err() != nil {
				late.Add(1)
			}
			ran.Add(1)
			if i == 5 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if workers == 1 && ran.Load() != 6 {
			t.Fatalf("workers=1: ran %d indices, want exactly 0..5", ran.Load())
		}
		if got := late.Load(); got > int32(workers-1) {
			t.Fatalf("workers=%d: %d indices started after the cancel", workers, got)
		}
	}
}

// TestGroupGoCtxUnblocksFullPoolOnCancel: at width 1, canceling while index 0
// blocks makes the fan-out return ctx.Err() as soon as index 0 is released,
// and index 1 never runs.
func TestGroupGoCtxUnblocksFullPoolOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- ForEachCtx(ctx, 2, 1, func(i int) {
			if i != 0 {
				t.Error("index 1 ran after cancel")
				return
			}
			close(started)
			<-release
		})
	}()
	<-started
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ForEachCtx stayed blocked after cancellation and release")
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
