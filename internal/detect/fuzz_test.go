package detect

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/radar"
)

// fuzzReader decodes primitive values from the fuzz input, cycling when the
// bytes run out so short inputs still exercise every decoder.
type fuzzReader struct {
	data []byte
	off  int
}

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.off%len(r.data)]
	r.off++
	return b
}

// float decodes a raw IEEE-754 double — NaN, ±Inf, subnormals and absurd
// magnitudes all come out of the corpus naturally.
func (r *fuzzReader) float() float64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = r.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

func (r *fuzzReader) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.byte()) % n
}

// checkScore asserts the universal detector contract: finite, non-negative,
// never NaN. hugeScore is the designated "certainly fake" ceiling and is
// allowed.
func checkScore(t *testing.T, name string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("%s = %v, want finite", name, v)
	}
	if v < 0 {
		t.Fatalf("%s = %v, want non-negative", name, v)
	}
	if v > hugeScore {
		t.Fatalf("%s = %v, exceeds hugeScore", name, v)
	}
}

// FuzzDetect throws arbitrary range–Doppler maps, tracks, velocity
// histories, and sample streams at every detector entry point. The contract
// under test: no panics, and every score/statistic stays finite and
// non-negative no matter how degenerate or adversarial the input — the
// detectors run inside the live service loop where a NaN would poison the
// suspicion gauge forever.
func FuzzDetect(f *testing.F) {
	f.Add([]byte{})                                               // empty everything
	f.Add([]byte{1})                                              // single byte → single-point track
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})                         // all-zero floats
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf0, 0x7f}) // NaN bits
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 2, 3})          // +Inf bits
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff, 9, 9})             // −Inf bits
	nominal := make([]byte, 0, 128)
	for i := 0; i < 16; i++ {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(i)*0.3+1))
		nominal = append(nominal, buf[:]...)
	}
	f.Add(nominal) // plausible monotone floats

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}

		// Range–Doppler map with capped dims; dims may also disagree with
		// the Power slice length.
		nr, nd := r.intn(17), r.intn(9)
		m := &radar.RangeDopplerMap{
			Params:      fmcw.DefaultParams(),
			PRI:         r.float(),
			RangeBins:   nr,
			DopplerBins: nd,
			Power:       make([]float64, r.intn(nr*nd+2)),
		}
		for i := range m.Power {
			m.Power[i] = r.float()
		}
		checkScore(t, "HarmonicScore", HarmonicScore(m, r.float(), HarmonicConfig{}))
		checkScore(t, "HarmonicScore(custom)", HarmonicScore(m, 2.5, HarmonicConfig{
			RangeGuard: r.intn(6), ColTol: r.intn(4), CenterGuard: r.intn(4),
			Percentile: float64(r.intn(120)), MinSNR: r.float(),
		}))

		// Track + velocity history: empty and single-point shapes fall out of
		// small inputs, NaN/Inf coordinates out of the raw float decoder.
		pts := make([]radar.TimedPoint, r.intn(24))
		for i := range pts {
			pts[i] = radar.TimedPoint{Time: r.float(), Pos: geom.Point{X: r.float(), Y: r.float()}}
		}
		hist := make([]radar.TimedVelocity, r.intn(12))
		for i := range hist {
			hist[i] = radar.TimedVelocity{Time: r.float(), Velocity: r.float()}
		}
		b := KinematicBounds{}
		st := AnalyzeKinematics(pts, hist, testArray(), r.float(), b)
		for _, v := range []float64{st.MaxSpeed, st.MaxAccel, st.MaxJerk, st.DopplerMismatch} {
			checkScore(t, "AnalyzeKinematics stat", v)
		}
		checkScore(t, "KinematicBounds.Score", b.Score(st))

		// Sample-stream probes.
		samples := make([]float64, r.intn(32))
		for i := range samples {
			samples[i] = r.float()
		}
		checkScore(t, "JitterScore", JitterScore(samples))
		lag := EstimateSyncLag(samples, r.float(), r.float())
		if math.IsNaN(lag) || math.IsInf(lag, 0) || lag < 0 {
			t.Fatalf("EstimateSyncLag = %v, want finite non-negative", lag)
		}
	})
}

// sameScore reports whether two verdicts agree bit for bit.
func sameScore(a, b TrackScore) bool {
	bits := func(s TrackScore) [7]uint64 {
		return [7]uint64{
			math.Float64bits(s.Harmonic), math.Float64bits(s.Kinematic), math.Float64bits(s.Suspicion),
			math.Float64bits(s.Kin.MaxSpeed), math.Float64bits(s.Kin.MaxAccel),
			math.Float64bits(s.Kin.MaxJerk), math.Float64bits(s.Kin.DopplerMismatch),
		}
	}
	return a.TrackID == b.TrackID && a.Frames == b.Frames &&
		a.Kin.Samples == b.Kin.Samples && a.Kin.VelSamples == b.Kin.VelSamples &&
		bits(a) == bits(b)
}

// FuzzScoreMemo holds TrackScorer's stored verdicts to an uncached
// recompute. A fuzzed detection stream — walkers that come and go,
// teleporting churn, NaN/±Inf positions, repeated and glitched times —
// drives a radar.Tracker and a TrackScorer, with a small synthetic
// range–Doppler map (and so a velocity band, from one of three chirp
// intervals) on some frames. After every frame, every track Tracks()
// reports must score, bit for bit, what the scorer computes from scratch
// with the evidence an ID-keyed oracle gathered on the side, and every
// score must pass checkScore.
func FuzzScoreMemo(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 1, 1, 3, 0})
	f.Add([]byte{2, 1, 1, 1, 3, 0, 2, 1, 1, 1, 0, 0, 2, 0, 0, 0, 3, 1})
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 3; n++ {
		seed := make([]byte, 256)
		rng.Read(seed)
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		array := testArray()
		tr := radar.NewTracker(radar.TrackerConfig{ConfirmHits: 2, MaxMisses: 2, MinTrackPoints: 3, KeepVelocityHistory: true})
		sc := NewTrackScorer(Config{}, array)
		oracle := make(map[int][]float64)
		pris := [...]float64{1e-3, 2e-3, 2e-2}
		base := 0.0
		frames := 1 + r.intn(160)
		for i := 0; i < frames; i++ {
			ts := base
			switch r.intn(8) {
			case 0: // repeated time
			case 1: // one glitched stamp; the clock itself runs on
				ts = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), base - 0.3}[r.intn(4)]
			default:
				base += 0.025 * float64(1+r.intn(4))
				ts = base
			}
			var dets []radar.Detection
			for k := 0; k < 3; k++ {
				if r.intn(4) == 0 {
					continue
				}
				pos := geom.Point{X: 1 + 0.04*float64(i) + 0.01*float64(r.intn(8)), Y: 1.5 * float64(k+1)}
				dets = append(dets, radar.Detection{Pos: pos, Time: ts})
			}
			switch r.intn(4) {
			case 0: // teleporting churn: never within the gate of last frame's
				dets = append(dets, radar.Detection{Pos: geom.Point{X: 3 * float64(i), Y: -2}, Time: ts})
			case 1: // raw bits: NaN, ±Inf, absurd magnitudes
				dets = append(dets, radar.Detection{Pos: geom.Point{X: r.float(), Y: r.float()}, Time: ts})
			}
			tr.Observe(ts, dets)

			if r.intn(3) == 0 {
				m := synthMap(1+r.intn(48), 1+r.intn(8), pris[r.intn(len(pris))], 0)
				for j := range m.Power {
					m.Power[j] = float64(r.intn(16))
				}
				if r.intn(8) == 0 {
					m.Power[r.intn(len(m.Power))] = r.float()
				}
				tr.AttachVelocities(m, array)
				sc.Observe(m, tr)
				tr.ForEachActive(func(trk *radar.Track) {
					if len(trk.Points) == 0 {
						return
					}
					dist := array.DistanceOf(trk.Points[len(trk.Points)-1].Pos)
					oracle[trk.ID] = append(oracle[trk.ID], HarmonicScore(m, dist, sc.cfg.Harmonic))
				})
			}

			for _, trk := range tr.Tracks() {
				got := sc.Score(trk)
				if want := sc.score(trk, oracle[trk.ID]); !sameScore(got, want) {
					t.Fatalf("frame %d: track %d (retired %v) scores %+v, recompute %+v", i, trk.ID, trk.Retired(), got, want)
				}
				for name, v := range map[string]float64{
					"Harmonic": got.Harmonic, "Kinematic": got.Kinematic, "Suspicion": got.Suspicion,
					"MaxSpeed": got.Kin.MaxSpeed, "MaxAccel": got.Kin.MaxAccel,
					"MaxJerk": got.Kin.MaxJerk, "DopplerMismatch": got.Kin.DopplerMismatch,
				} {
					checkScore(t, name, v)
				}
			}
		}
	})
}
