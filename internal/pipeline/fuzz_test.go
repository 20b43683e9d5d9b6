package pipeline

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// fuzzParams keeps fuzz iterations cheap: 32 IF samples, 2 antennas,
// noiseless.
func fuzzParams() fmcw.Params {
	p := fmcw.DefaultParams()
	p.SampleRate = 32e3
	p.ChirpDuration = 1e-3 // 32 samples per chirp
	p.NumAntennas = 2
	p.NoiseStd = 0
	return p
}

// fuzzFrames synthesizes n tiny frames with one moving scatterer so every
// stage has real signal to chew on.
func fuzzFrames(n int) []*fmcw.Frame {
	p := fuzzParams()
	out := make([]*fmcw.Frame, n)
	for i := range out {
		t := float64(i) / p.FrameRate
		d := 3.0 - 0.5*t
		ret := fmcw.Return{Delay: 2 * d / fmcw.C, Amplitude: 1, AoA: math.Pi / 2}
		out[i] = synthesize(p, []fmcw.Return{ret}, t, nil)
	}
	return out
}

// fuzzStages decodes a stage chain from fuzz bytes: each byte selects one
// stage from a palette of every composable stage in the package, in any
// order, duplicates allowed. A fresh chain is built per call because stages
// hold cross-frame state.
func fuzzStages(order []byte, array fmcw.Array) []Stage {
	plan := radar.CompileFrontEndPlan(radar.DefaultConfig(), fuzzParams())
	pools := NewPools(fuzzParams())
	var stages []Stage
	for _, b := range order {
		switch b % 8 {
		case 0:
			stages = append(stages, newBackgroundSubtract(pools.Frames))
		case 1:
			stages = append(stages, newRangeAngle(plan, pools.Profiles))
		case 2:
			stages = append(stages, newPeakExtract(plan, array))
		case 3:
			stages = append(stages, NewTrack(radar.TrackerConfig{}))
		case 4:
			stages = append(stages, NewDopplerPlanned(plan, 3, 0, pools.Doppler))
		case 5:
			stages = append(stages, NewBreathingPhase(radar.BreathingExtractor{}, 2))
		case 6:
			stages = append(stages, NewCollectProfiles())
		case 7:
			stages = append(stages, NewTrackWithVelocity(radar.TrackerConfig{}, array))
		}
		if len(stages) == 8 {
			break
		}
	}
	return stages
}

// FuzzStageComposition drives random stage orderings and frame counts
// through Run: any composition must complete without panics or deadlocks,
// deliver every frame, and produce the detection sequence of a hand-driven
// oracle that gives every stage a fresh Item per frame — which proves that
// the Item Run reuses carries no state from one frame into the next. A
// second run, canceled after frame cut mod nFrames, must return.
// Run with
//
//	go test -fuzz FuzzStageComposition -fuzztime 10s ./internal/pipeline
//
// for a bounded CI exploration; the seed corpus below runs on every plain
// `go test`.
func FuzzStageComposition(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{0})
	f.Add(uint8(5), uint8(1), []byte{0, 1, 2, 3})
	f.Add(uint8(7), uint8(2), []byte{0, 1, 2, 4, 7})
	f.Add(uint8(9), uint8(3), []byte{4, 4, 0, 5})
	f.Add(uint8(12), uint8(4), []byte{2, 1, 0, 3, 6})    // out-of-order front end
	f.Add(uint8(3), uint8(2), []byte{5, 5, 5})           // duplicate stateful stages
	f.Add(uint8(16), uint8(8), []byte{0, 1, 6, 2, 3, 4}) // full chain
	f.Add(uint8(0), uint8(1), []byte{0, 1, 2})           // zero frames
	f.Add(uint8(4), uint8(2), []byte{})                  // zero stages
	f.Add(uint8(20), uint8(1), []byte{7, 0, 1, 2, 4, 5}) // velocity chain
	f.Add(uint8(6), uint8(3), []byte{0, 2, 1})           // peak-extract ahead of its profile
	f.Fuzz(func(t *testing.T, nFrames, cut uint8, order []byte) {
		n := int(nFrames) % 21
		array := fmcw.Array{}
		frames := fuzzFrames(n)
		ctx := context.Background()

		// Oracle: every stage sees a fresh &Item{Index: i, Frame: f}.
		oracle := NewCollectDetections()
		stages := append(fuzzStages(order, array), oracle)
		for i, fr := range frames {
			it := &Item{Index: i, Frame: fr}
			for _, st := range stages {
				if err := st.Process(ctx, it); err != nil {
					t.Fatalf("oracle: stage %s errored on frame %d: %v", st.Name(), i, err)
				}
			}
		}

		dets := NewCollectDetections()
		p := New(FromFrames(frames), append(fuzzStages(order, array), dets)...)
		var got int
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			got, err = p.Run(ctx)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("pipeline deadlocked (frames=%d, order=%v)", n, order)
		}
		if err != nil {
			t.Fatalf("pipeline errored: %v", err)
		}
		if got != n {
			t.Fatalf("dropped frames: ran %d, want %d", got, n)
		}
		if !reflect.DeepEqual(dets.Detections(), oracle.Detections()) {
			t.Fatalf("Run detections diverge from the fresh-Item oracle (frames=%d, order=%v)", n, order)
		}

		// Mid-capture cancellation must also never deadlock or leak: cancel
		// after frame cut mod n.
		if n > 0 {
			ctx, cancel := context.WithCancel(ctx)
			defer cancel()
			after := int(cut)%n + 1
			stages := append(fuzzStages(order, array), &cancelAfter{n: after, cancel: cancel})
			p := New(FromFrames(frames), stages...)
			done := make(chan struct{})
			go func() {
				defer close(done)
				p.Run(ctx) //nolint:errcheck // any ctx/nil outcome is fine; liveness is the property
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("canceled pipeline deadlocked (frames=%d, after=%d, order=%v)", n, after, order)
			}
		}
	})
}
