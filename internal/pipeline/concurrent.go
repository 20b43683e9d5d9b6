package pipeline

import (
	"context"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// RunConcurrent drains the source through the stage chain with every stage
// running in its own goroutine, connected by bounded channels of the given
// depth (depth <= 0 means 1): stage N of frame i overlaps stage 1 of frame
// i+k, so a capture's throughput approaches the cost of the slowest stage
// instead of the sum of all stages. Like Run, it returns the number of
// frames that completed every stage and the first error.
//
// The output contract is strict: delivery order and results are
// bit-identical to Run. That holds by construction — each stage is a single
// goroutine consuming its input channel in FIFO order, so every stage still
// sees frames 0, 1, 2, … in sequence and its cross-frame state (background
// history, tracker, unwrap offset, Doppler window) evolves exactly as in
// the sequential run; channel hand-off provides the happens-before edge
// that makes earlier stages' Item writes visible downstream. The only
// differences are cost and footprint: up to (stages+1)·depth frames are in
// flight instead of one.
//
// Backpressure is the channel bound: a slow stage fills its input channel
// and stalls the stages (and source) upstream of it, so memory stays
// bounded no matter how mismatched stage costs are.
//
// Errors and cancellation follow Run's semantics. A stage or source error
// stops the source, drains every channel without further processing, joins
// all goroutines, and returns the error that a sequential run would have
// hit first (smallest frame index, then earliest stage). A done ctx stops
// the run the same way with ctx.Err(); no goroutines outlive the call.
func (p *Pipeline) RunConcurrent(ctx context.Context, depth int) (frames int, err error) {
	if len(p.stages) == 0 {
		// No stages means nothing to overlap; the sequential loop is the
		// same machine with less plumbing.
		return p.Run(ctx)
	}
	if depth <= 0 {
		depth = 1
	}

	// failure collects every error with its sequential-order coordinates so
	// the winner — the error a sequential run would have returned — can be
	// picked after all goroutines join.
	type failure struct {
		frame, stage int // stage -1 is the source
		err          error
	}
	var (
		failMu sync.Mutex
		fails  []failure
		failed atomic.Bool
	)
	fail := func(frame, stage int, err error) {
		failMu.Lock()
		fails = append(fails, failure{frame: frame, stage: stage, err: err})
		failMu.Unlock()
		failed.Store(true)
	}

	chans := make([]chan *Item, len(p.stages)+1)
	for i := range chans {
		chans[i] = make(chan *Item, depth)
	}

	var wg sync.WaitGroup
	// Source goroutine: the only consumer of p.src, pulling frames in the
	// same order and with the same pre-pull ctx check as Run, so rng
	// consumption inside the source is identical to the sequential path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chans[0])
		for i := 0; ; i++ {
			if failed.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(i, -1, err)
				return
			}
			f, err := p.src.Next(ctx)
			if err == io.EOF {
				return
			}
			if err != nil {
				fail(i, -1, err)
				return
			}
			chans[0] <- p.getItem(i, f)
		}
	}()
	// One goroutine per stage: receive, process, forward. After a failure
	// anywhere, stages keep draining their input (so upstream sends never
	// block) but stop processing and forwarding, which lets the whole
	// chain empty out and close down without an internal cancellation
	// context — Process never sees a cancel the caller didn't request.
	for s, st := range p.stages {
		wg.Add(1)
		go func(s int, st Stage) {
			defer wg.Done()
			defer close(chans[s+1])
			for it := range chans[s] {
				if failed.Load() {
					continue
				}
				if err := st.Process(ctx, it); err != nil {
					fail(it.Index, s, stageError{stage: st.Name(), err: err})
					continue
				}
				chans[s+1] <- it
			}
		}(s, st)
	}
	// The caller's goroutine is the sink: counting the final channel both
	// measures completed frames and guarantees the last stage never blocks.
	// It is also the one place an item is provably past its last stage, so
	// pooled buffers are recycled here; items dropped by the failure drain
	// above never arrive and their buffers fall to the GC instead of a pool
	// (a bounded, benign leak on the abort path).
	for it := range chans[len(p.stages)] {
		frames++
		p.recycle(it)
		p.putItem(it)
	}
	wg.Wait()

	if len(fails) == 0 {
		return frames, nil
	}
	sort.Slice(fails, func(i, j int) bool {
		if fails[i].frame != fails[j].frame {
			return fails[i].frame < fails[j].frame
		}
		return fails[i].stage < fails[j].stage
	})
	return frames, fails[0].err
}
