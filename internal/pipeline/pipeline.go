package pipeline

import (
	"context"
	"io"
	"sync"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// Source emits the frames a pipeline consumes, one at a time. Next returns
// io.EOF when the stream is exhausted and ctx.Err() once ctx is done.
// scene.FrameStream is the canonical implementation; FromFrames adapts an
// already-captured slice (replays, tests).
type Source interface {
	Next(ctx context.Context) (*fmcw.Frame, error)
}

// Item is the per-frame record flowing down the stage chain. Each stage
// reads the fields earlier stages filled in and adds its own; a stage that
// finds its input field nil passes the item through untouched (the first
// frame of a capture, for example, only seeds the background history and
// produces no profile or detections).
type Item struct {
	Index      int         // frame number within the run, from 0
	Frame      *fmcw.Frame // the raw synthesized frame
	Diff       *fmcw.Frame // background-subtracted frame (nil for frame 0)
	Profile    *radar.Profile
	Detections []radar.Detection
	HasDets    bool // Detections is valid (maybe empty): frame produced a detection set
	// RangeDoppler is the sliding-window range–Doppler map ending at this
	// frame (nil until DopplerStage's window fills).
	RangeDoppler *radar.RangeDopplerMap
}

// Stage is one processing step applied to every item in stream order.
// Stages run sequentially within a frame and hold whatever bounded state
// they need across frames (one history frame, a tracker, an unwrap offset);
// they must not retain the Item or its buffers beyond the call — what they
// keep, they copy (collectors, trackers).
type Stage interface {
	// Name identifies the stage in errors and diagnostics.
	Name() string
	// Process consumes the next item. Returning an error aborts the run.
	Process(ctx context.Context, it *Item) error
}

// Pipeline wires a Source to a stage chain.
type Pipeline struct {
	src    Source
	stages []Stage
	pools  *Pools

	// itemFree recycles the per-frame Item records: an item goes back on
	// the list once its last stage has run (and its pooled buffers have
	// been recycled), so the steady state of Run and RunConcurrent holds
	// exactly one live Item per in-flight frame and allocates none. Safe
	// under the Stage contract — stages must not retain the Item or its
	// buffers beyond Process. A mutex free list rather than sync.Pool for
	// the same reason fmcw.FramePool uses one: the GC never empties it, so
	// AllocsPerRun tests can assert an exact zero.
	itemMu   sync.Mutex
	itemFree []*Item
}

// getItem pops a recycled Item (or allocates the first few) and stamps it
// as frame i carrying f. Every field starts zero like the &Item{...} literal
// it replaces, except that the Detections backing array survives (emptied)
// so the peak-extract stage appends into it without allocating.
func (p *Pipeline) getItem(i int, f *fmcw.Frame) *Item {
	p.itemMu.Lock()
	var it *Item
	if n := len(p.itemFree); n > 0 {
		it = p.itemFree[n-1]
		p.itemFree[n-1] = nil
		p.itemFree = p.itemFree[:n-1]
	}
	p.itemMu.Unlock()
	if it == nil {
		return &Item{Index: i, Frame: f}
	}
	dets := it.Detections
	*it = Item{Index: i, Frame: f}
	it.Detections = dets[:0]
	return it
}

// putItem returns an item whose stage chain has completed. Items on the
// error/abort path are never put back — like half-processed buffers, they
// simply drop to the GC.
func (p *Pipeline) putItem(it *Item) {
	p.itemMu.Lock()
	p.itemFree = append(p.itemFree, it)
	p.itemMu.Unlock()
}

// New assembles a pipeline. Stages run in the given order for every frame.
func New(src Source, stages ...Stage) *Pipeline {
	return &Pipeline{src: src, stages: stages}
}

// Pools bundles the buffer pools of a zero-allocation streaming run: raw
// and background-subtracted frames share one FramePool (they have the same
// shape), profiles and Doppler maps each have their own. A Pools value ties
// the producers to the recycler — the source and stages Get from these
// pools, and the pipeline Puts every item's buffers back after its last
// stage (see Pipeline.UsePools).
type Pools struct {
	Frames   *fmcw.FramePool
	Profiles *radar.ProfilePool
	Doppler  *radar.DopplerPool
}

// NewPools returns pools for captures with the given frame parameters.
func NewPools(p fmcw.Params) *Pools {
	return &Pools{
		Frames:   fmcw.NewFramePool(p),
		Profiles: radar.NewProfilePool(),
		Doppler:  radar.NewDopplerPool(),
	}
}

// UsePools makes the pipeline recycle each item's buffers (frame, diff,
// profile, Doppler map) into the given pools once the item has completed
// every stage — the consumer half of the buffer-ownership contract in
// DESIGN.md "Buffer ownership & pooling". The producer half is the caller's:
// the pools must be the ones the source and stages draw from
// (scene.FrameStream.UsePool(pl.Frames) + FrontEndStagesPlanned(plan, array,
// pl)). Attaching pools to a pipeline whose source replays caller-owned
// frames (FromFrames) would zero and reuse those frames mid-replay; such a
// run leaves UsePools off, and the stages then allocate every buffer. It
// returns p for chaining.
func (p *Pipeline) UsePools(pl *Pools) *Pipeline {
	p.pools = pl
	return p
}

// recycle returns an item's pooled buffers once no stage will touch them
// again. Without attached pools it is a no-op; nil buffer fields (frame 0's
// Diff, items before the Doppler window fills) are skipped by the pools.
func (p *Pipeline) recycle(it *Item) {
	pl := p.pools
	if pl == nil {
		return
	}
	pl.Frames.Put(it.Frame)
	pl.Frames.Put(it.Diff)
	pl.Profiles.Put(it.Profile)
	pl.Doppler.Put(it.RangeDoppler)
}

// Run drains the source through the stage chain: synthesize (or read) one
// frame, push it through every stage, drop it, repeat. It returns the
// number of frames fully processed and the first error. A done context
// stops the run between per-frame steps (and inside the ctx-aware kernels
// below them) with ctx.Err(); an exhausted source ends it with a nil error.
func (p *Pipeline) Run(ctx context.Context) (frames int, err error) {
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return i, err
		}
		f, err := p.src.Next(ctx)
		if err == io.EOF {
			return i, nil
		}
		if err != nil {
			return i, err
		}
		it := p.getItem(i, f)
		for _, st := range p.stages {
			if err := st.Process(ctx, it); err != nil {
				// The failed item's buffers are NOT recycled — on the error
				// path they simply drop to the GC, which keeps a half-
				// processed buffer from ever re-entering a pool.
				return i, stageError{stage: st.Name(), err: err}
			}
		}
		p.recycle(it)
		p.putItem(it)
	}
}

// stageError tags an error with the stage that produced it while keeping
// errors.Is/As working on the cause.
type stageError struct {
	stage string
	err   error
}

func (e stageError) Error() string { return "pipeline: " + e.stage + ": " + e.err.Error() }
func (e stageError) Unwrap() error { return e.err }

// frameSlice adapts an in-memory frame slice to the Source interface.
type frameSlice struct {
	frames []*fmcw.Frame
	i      int
}

// FromFrames returns a Source replaying an already-captured slice — the
// bridge from recorded data (or tests) into the streaming pipeline.
func FromFrames(frames []*fmcw.Frame) Source {
	return &frameSlice{frames: frames}
}

func (s *frameSlice) Next(ctx context.Context) (*fmcw.Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.i >= len(s.frames) {
		return nil, io.EOF
	}
	f := s.frames[s.i]
	s.i++
	return f, nil
}
