package pipeline

import (
	"context"
	"time"

	"rfprotect/internal/fmcw"
)

// PacedSource wraps a Source and meters it out in real time: the first
// frame is emitted immediately and every later frame no sooner than
// 1/frameRate after its predecessor's slot, keyed to a drift-free schedule
// (slot times accumulate from the first emission, so a slow consumer does
// not stretch the grid). It turns an as-fast-as-possible synthesis stream
// into a live capture for dashboard demos and end-to-end latency tests;
// combined with RunConcurrent, processing of frame i overlaps the wait for
// frame i+1.
type PacedSource struct {
	src      Source
	interval time.Duration
	next     time.Time // zero until the first frame has been emitted
}

// NewPaced returns a paced view of src emitting at the given frame rate;
// frameRate <= 0 disables pacing (the source passes through untouched).
func NewPaced(src Source, frameRate float64) *PacedSource {
	var iv time.Duration
	if frameRate > 0 {
		iv = time.Duration(float64(time.Second) / frameRate)
	}
	return &PacedSource{src: src, interval: iv}
}

// Next waits for the next frame slot, then pulls from the wrapped source.
// A done ctx interrupts the wait and returns ctx.Err(); io.EOF passes
// through when the wrapped source is exhausted.
//
//rfvet:allow wallclock -- real-time pacing is this type's purpose: the slot grid is anchored to the wall clock by design
func (s *PacedSource) Next(ctx context.Context) (*fmcw.Frame, error) {
	if s.interval > 0 && !s.next.IsZero() {
		if wait := time.Until(s.next); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
	}
	f, err := s.src.Next(ctx)
	if err != nil {
		return nil, err
	}
	if s.next.IsZero() {
		s.next = time.Now()
	}
	s.next = s.next.Add(s.interval)
	return f, nil
}
