package pipeline

import (
	"context"
	"math"
	"math/rand"
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
// through both schedulers: any composition must complete without panics or
// deadlocks, deliver every frame, and produce identical detection
// sequences sequentially and concurrently. Run with
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
	f.Add(uint8(16), uint8(8), []byte{0, 1, 6, 2, 3, 4}) // deep buffers
	f.Add(uint8(0), uint8(1), []byte{0, 1, 2})           // zero frames
	f.Add(uint8(4), uint8(2), []byte{})                  // zero stages
	f.Add(uint8(20), uint8(1), []byte{7, 0, 1, 2, 4, 5}) // velocity chain, depth 1
	f.Fuzz(func(t *testing.T, nFrames, depth uint8, order []byte) {
		n := int(nFrames) % 21
		d := int(depth)%8 + 1
		array := fmcw.Array{}
		frames := fuzzFrames(n)

		run := func(concurrent bool) (int, [][]radar.Detection, error) {
			stages := fuzzStages(order, array)
			dets := NewCollectDetections()
			stages = append(stages, dets)
			p := New(FromFrames(frames), stages...)
			var got int
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				if concurrent {
					got, err = p.RunConcurrent(context.Background(), d)
				} else {
					got, err = p.Run(context.Background())
				}
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("pipeline deadlocked (concurrent=%v, frames=%d, depth=%d, order=%v)",
					concurrent, n, d, order)
			}
			return got, dets.Detections(), err
		}

		seqN, seqDets, seqErr := run(false)
		conN, conDets, conErr := run(true)
		if seqErr != nil || conErr != nil {
			t.Fatalf("pipeline errored: sequential %v, concurrent %v", seqErr, conErr)
		}
		if seqN != n || conN != n {
			t.Fatalf("dropped frames: sequential %d, concurrent %d, want %d", seqN, conN, n)
		}
		if !reflect.DeepEqual(seqDets, conDets) {
			t.Fatalf("concurrent detections diverge from sequential (frames=%d, depth=%d, order=%v)",
				n, d, order)
		}

		// Mid-capture cancellation must also never deadlock or leak: cancel
		// at a pseudo-random frame derived from the inputs.
		if n > 0 {
			stages := fuzzStages(order, array)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			after := rand.New(rand.NewSource(int64(n*31+d))).Intn(n) + 1
			stages = append(stages, &cancelAfter{n: after, cancel: cancel})
			p := New(FromFrames(frames), stages...)
			done := make(chan struct{})
			go func() {
				defer close(done)
				p.RunConcurrent(ctx, d) //nolint:errcheck // any ctx/nil outcome is fine; liveness is the property
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("canceled pipeline deadlocked (frames=%d, depth=%d, order=%v)", n, d, order)
			}
		}
	})
}
