package pipeline

import (
	"context"
	"errors"
	"math/cmplx"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/parallel"
	"rfprotect/internal/radar"
)

// Run is the one scheduler, but it is not single-threaded: the front-end
// kernels and any stage may fan a frame's work out across the shared
// parallel pool, and the daemon runs one Run per room at once. The tests
// here hold Run's cancellation, error and frame-count contract under that
// concurrency.

// fanOutStage spreads each frame's per-antenna work across the shared pool
// with width 2, so part of it runs on pool helpers. Each index writes only
// its own slot of sums.
type fanOutStage struct {
	sums  []float64
	calls int
}

func (s *fanOutStage) Name() string { return "fan-out" }

func (s *fanOutStage) Process(ctx context.Context, it *Item) error {
	s.calls++
	rows := it.Frame.Data
	if len(s.sums) != len(rows) {
		s.sums = make([]float64, len(rows))
	}
	return parallel.ForEachCtx(ctx, len(rows), 2, func(i int) {
		var sum float64
		for _, v := range rows[i] {
			sum += cmplx.Abs(v)
		}
		s.sums[i] = sum
	})
}

// concurrentFrontEnd is the planned front end with two fan-out workers, so
// its range–angle and Doppler kernels run on pool helpers too.
func concurrentFrontEnd(p fmcw.Params, array fmcw.Array, doppler bool) []Stage {
	cfg := radar.DefaultConfig()
	cfg.Workers = 2
	plan := radar.CompileFrontEndPlan(cfg, p)
	pools := NewPools(p)
	stages := FrontEndStagesPlanned(plan, array, pools)
	if doppler {
		stages = append(stages, NewDopplerPlanned(plan, 8, 0, pools.Doppler))
	}
	return stages
}

// waitGoroutines waits up to two seconds for the goroutine count to fall
// back to before, then fails if it has not.
func waitGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after %s", before, after, what)
	}
}

// TestConcurrentCancelNoLeak cancels an unbounded capture mid-stream while
// the front end, the Doppler stage and a fan-out stage spread their work
// across pool helpers: Run must return context.Canceled with every helper
// joined and no goroutine left behind.
func TestConcurrentCancelNoLeak(t *testing.T) {
	s := testSession(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fan := &fanOutStage{}
	stages := append(concurrentFrontEnd(s.Scene.Params, s.Scene.Radar, true),
		fan, NewTrack(radar.TrackerConfig{}), &cancelAfter{n: 3, cancel: cancel})
	p := New(s.Scene.Stream(0, -1, rand.New(rand.NewSource(2))), stages...)
	frames, err := p.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if frames < 3 || fan.calls < 3 {
		t.Fatalf("processed %d frames (fan-out ran %d times) before cancel, want >= 3", frames, fan.calls)
	}
	waitGoroutines(t, before, "canceled run")
}

// TestConcurrentCancelBeforeStart returns ctx.Err with zero frames, and no
// stage — fanned out or not — ever runs.
func TestConcurrentCancelBeforeStart(t *testing.T) {
	s := testSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fan := &fanOutStage{}
	stages := append(concurrentFrontEnd(s.Scene.Params, s.Scene.Radar, false), fan)
	frames, err := New(s.Scene.Stream(0, 10, rand.New(rand.NewSource(2))), stages...).Run(ctx)
	if !errors.Is(err, context.Canceled) || frames != 0 {
		t.Fatalf("Run = (%d, %v), want (0, context.Canceled)", frames, err)
	}
	if fan.calls != 0 {
		t.Fatalf("fan-out stage ran %d times on a canceled context", fan.calls)
	}
}

// TestConcurrentStageErrorTagged verifies that a stage error after a
// fan-out stage aborts the run on the first frame, stays matchable through
// the stage tag, and leaves every pool helper joined.
func TestConcurrentStageErrorTagged(t *testing.T) {
	boom := errors.New("boom")
	frames := []*fmcw.Frame{
		fmcw.NewFrame(fmcw.DefaultParams(), 0),
		fmcw.NewFrame(fmcw.DefaultParams(), 1),
		fmcw.NewFrame(fmcw.DefaultParams(), 2),
	}
	before := runtime.NumGoroutine()
	fan := &fanOutStage{}
	n, err := New(FromFrames(frames), fan, failStage{err: boom}).Run(context.Background())
	if !errors.Is(err, boom) || n != 0 {
		t.Fatalf("Run = (%d, %v), want (0, wrapped boom)", n, err)
	}
	if !strings.Contains(err.Error(), "boom-stage") {
		t.Fatalf("error %q does not name the failing stage", err)
	}
	if fan.calls != 1 {
		t.Fatalf("fan-out stage ran %d times, want 1: the run must stop at the first error", fan.calls)
	}
	waitGoroutines(t, before, "stage error")
}

// errAfterSource fails with its error after emitting n frames.
type errAfterSource struct {
	n    int
	i    int
	err  error
	base fmcw.Params
}

func (s *errAfterSource) Next(ctx context.Context) (*fmcw.Frame, error) {
	if s.i >= s.n {
		return nil, s.err
	}
	f := fmcw.NewFrame(s.base, float64(s.i))
	s.i++
	return f, nil
}

// TestConcurrentSourceError propagates a mid-stream source failure: Run
// returns the source's error after exactly the frames it did emit, each of
// which went through the fan-out stage.
func TestConcurrentSourceError(t *testing.T) {
	broken := errors.New("antenna unplugged")
	src := &errAfterSource{n: 4, err: broken, base: fmcw.DefaultParams()}
	fan := &fanOutStage{}
	n, err := New(src, newBackgroundSubtract(fmcw.NewFramePool(src.base)), fan).Run(context.Background())
	if !errors.Is(err, broken) || n != 4 {
		t.Fatalf("Run = (%d, %v), want (4, the source error)", n, err)
	}
	if fan.calls != 4 {
		t.Fatalf("fan-out stage ran %d times, want 4", fan.calls)
	}
}

// TestConcurrentNoStages runs several stageless pipelines at once, as the
// daemon runs one pipeline per room: each drains its own replay and counts
// every frame, whatever the others do.
func TestConcurrentNoStages(t *testing.T) {
	const pipes = 4
	var wg sync.WaitGroup
	counts := make([]int, pipes)
	errs := make([]error, pipes)
	for k := 0; k < pipes; k++ {
		frames := make([]*fmcw.Frame, 2+k)
		for i := range frames {
			frames[i] = fmcw.NewFrame(fmcw.DefaultParams(), float64(i))
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			counts[k], errs[k] = New(FromFrames(frames)).Run(context.Background())
		}(k)
	}
	wg.Wait()
	for k := 0; k < pipes; k++ {
		if errs[k] != nil || counts[k] != 2+k {
			t.Fatalf("pipeline %d: Run = (%d, %v), want (%d, nil)", k, counts[k], errs[k], 2+k)
		}
	}
}
