package parallel

import (
	"context"
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: values <= 0 mean "one per
// available CPU" (runtime.GOMAXPROCS(0), which defaults to
// runtime.NumCPU()).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachCtx calls fn(i) for every i in [0, n) across the shared persistent
// pool with up to the given width (<= 0 means Workers(0)). Iterations are
// claimed dynamically, so uneven per-index cost still load-balances. With
// one worker — or n <= 1 — it runs inline with no goroutines at all, so the
// sequential path has zero scheduling overhead; wider calls wake parked
// pool workers instead of spawning, so the steady state spawns no
// goroutines either (see Pool).
//
// fn must only write to destinations owned by index i (its row, its slot):
// under that contract the result is bit-identical for every worker count.
// ForEachCtx returns only after every call has completed.
//
// Cancellation is cooperative: participants stop claiming new indices once
// ctx is done, in-flight calls finish, and the call returns ctx.Err().
// Indices already claimed still run to completion, so fn's disjoint-write
// contract is unchanged; on cancellation the partially written
// destinations must simply be discarded by the caller. Cancellation changes
// which indices run, never what an index computes.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	return defaultPool.ForEachCtx(ctx, n, workers, fn)
}

// Group runs heterogeneous tasks with bounded concurrency and first-error
// capture, in the style of golang.org/x/sync/errgroup (reimplemented here
// to keep the module dependency-free). The zero value is not usable; call
// NewGroup.
type Group struct {
	sem chan struct{}
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// NewGroup returns a Group running at most the given number of tasks at
// once (<= 0 means Workers(0)).
func NewGroup(workers int) *Group {
	return &Group{sem: make(chan struct{}, Workers(workers))}
}

// GoCtx schedules fn on the group, blocking while the group is full. The
// first non-nil error wins; later tasks still run to completion (callers
// write results to disjoint slots and decide what to keep after Wait).
//
// GoCtx stops scheduling once ctx is done: a canceled context makes GoCtx
// record ctx.Err() (first error wins) and return without running fn —
// including while blocked waiting for a slot. Tasks already running are
// not interrupted; fn receives no context and should watch ctx itself if
// it is long-running.
//
//rfvet:allow goroleak -- the Group is the joining primitive: every spawn is wg-counted here and joined by Group.Wait
func (g *Group) GoCtx(ctx context.Context, fn func() error) {
	if err := ctx.Err(); err != nil {
		g.setErr(err)
		return
	}
	g.wg.Add(1)
	select {
	case g.sem <- struct{}{}:
	case <-ctx.Done():
		g.wg.Done()
		g.setErr(ctx.Err())
		return
	}
	go func() {
		defer g.wg.Done()
		defer func() { <-g.sem }()
		if err := ctx.Err(); err != nil {
			g.setErr(err)
			return
		}
		if err := fn(); err != nil {
			g.setErr(err)
		}
	}()
}

// setErr records the group's first error.
func (g *Group) setErr(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

// Wait blocks until every scheduled task has finished and returns the first
// error any of them reported.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// SplitSeed deterministically derives the seed for an independent RNG
// stream from a base seed and a stream index, using a SplitMix64-style
// finalizer so adjacent stream indices land far apart in seed space.
// Handing rand.New(rand.NewSource(SplitSeed(base, i))) to the worker that
// owns index i makes randomized parallel code reproducible for any worker
// count and schedule: the stream depends only on (base, i).
func SplitSeed(base int64, stream int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
