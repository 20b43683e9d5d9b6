package pipeline

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// dopplerParams is a noiseless configuration with a 1 kHz frame rate, so
// the slow-time sampling interval is 1 ms and the unambiguous velocity band
// (±λ·FrameRate/4 ≈ ±11.5 m/s) comfortably covers walking-speed targets.
func dopplerParams() fmcw.Params {
	p := fmcw.DefaultParams()
	p.FrameRate = 1000
	p.NoiseStd = 0
	return p
}

// scattererFrames synthesizes nFrames of a single point scatterer starting
// at range r0 and approaching at constant radial velocity v (m/s; negative
// = receding): delay τ(t) = 2(r0 − v·t)/C, so the carrier phase 2π·f_c·τ
// rotates at the physical Doppler frequency 2·v·f_c/C.
func scattererFrames(p fmcw.Params, nFrames int, r0, v float64) []*fmcw.Frame {
	frames := make([]*fmcw.Frame, nFrames)
	for i := range frames {
		t := float64(i) / p.FrameRate
		d := r0 - v*t
		ret := fmcw.Return{Delay: 2 * d / fmcw.C, Amplitude: 1, AoA: math.Pi / 2}
		frames[i] = synthesize(p, []fmcw.Return{ret}, t, nil)
	}
	return frames
}

// dopplerCollector keeps the last range–Doppler map seen (maps are
// recomputed every frame once the window fills; the last one summarizes the
// capture for equivalence checks).
type dopplerCollector struct {
	last *radar.RangeDopplerMap
}

func (c *dopplerCollector) Name() string { return "collect-doppler" }

func (c *dopplerCollector) Process(ctx context.Context, it *Item) error {
	if it.RangeDoppler != nil {
		c.last = it.RangeDoppler
	}
	return nil
}

// lastDopplerMap pushes the frames through a DopplerStage and returns the
// sliding-window map ending at the last frame.
func lastDopplerMap(t *testing.T, frames []*fmcw.Frame, window int) *radar.RangeDopplerMap {
	t.Helper()
	plan := radar.CompileFrontEndPlan(radar.DefaultConfig(), frames[0].Params)
	dop := NewDopplerPlanned(plan, window, 0, radar.NewDopplerPool())
	col := &dopplerCollector{}
	if _, err := New(FromFrames(frames), dop, col).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if col.last == nil {
		t.Fatal("window never filled: no range–Doppler map produced")
	}
	return col.last
}

// TestDopplerStagePeakMatchesVelocity is the physical property the Doppler
// subsystem must satisfy: a scatterer at constant radial velocity v puts
// its slow-time peak within one Doppler bin of the physical Doppler
// frequency 2·v·f_c/C (equivalently, bin BinOfVelocity(v)), at the right
// range; a static scatterer lands in the zero-Doppler bin. Table-driven
// over approaching and receding velocities at multiple ranges.
func TestDopplerStagePeakMatchesVelocity(t *testing.T) {
	const window = 64
	p := dopplerParams()
	cases := []struct {
		name string
		r0   float64
		v    float64
	}{
		{"static-2m", 2, 0},
		{"static-5m", 5, 0},
		{"approach-slow-3m", 3, 0.7},
		{"approach-walk-2m", 2, 1.3},
		{"approach-walk-6m", 6, 1.3},
		{"approach-fast-4m", 4, 3.0},
		{"recede-slow-3m", 3, -0.7},
		{"recede-walk-5m", 5, -1.3},
		{"recede-fast-2m", 2, -3.0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := lastDopplerMap(t, scattererFrames(p, window, c.r0, c.v), window)
			// Global peak of the map.
			bestR, bestD, bestP := -1, -1, 0.0
			for r := 0; r < m.RangeBins; r++ {
				for d := 0; d < m.DopplerBins; d++ {
					if pw := m.At(r, d); pw > bestP {
						bestR, bestD, bestP = r, d, pw
					}
				}
			}
			if bestP == 0 {
				t.Fatal("empty range–Doppler map")
			}
			wantD := m.BinOfVelocity(c.v)
			if c.v == 0 && wantD != float64(m.DopplerBins)/2 {
				t.Fatalf("zero velocity maps to bin %v, want the zero-Doppler bin %d", wantD, m.DopplerBins/2)
			}
			if diff := math.Abs(float64(bestD) - wantD); diff > 1 {
				t.Fatalf("Doppler peak at bin %d, want within one bin of %.2f (v=%v m/s, off by %.2f bins)",
					bestD, wantD, c.v, diff)
			}
			// The window's center range (the scatterer moves during the burst).
			midRange := c.r0 - c.v*float64(window/2)/p.FrameRate
			if diff := math.Abs(float64(bestR) - m.BinOfRange(midRange)); diff > 1.5 {
				t.Fatalf("range peak at bin %d, want near %.2f", bestR, m.BinOfRange(midRange))
			}
			// Velocity read back through the peak extractor agrees too.
			v, _, ok := m.PeakVelocityAtRange(midRange, 1)
			if !ok {
				t.Fatal("PeakVelocityAtRange found no peak at the scatterer's range")
			}
			binWidth := m.VelocityOfBin(0) - m.VelocityOfBin(1)
			if math.Abs(binWidth) < 1e-12 {
				t.Fatal("degenerate Doppler bin width")
			}
			if err := math.Abs(v - c.v); err > math.Abs(binWidth) {
				t.Fatalf("extracted velocity %v, want %v within one bin width %v", v, c.v, binWidth)
			}
		})
	}
}

// TestDopplerStageWindowSlides verifies the ring buffer actually slides: a
// target that speeds up mid-capture must show different velocities in maps
// taken before and after the change.
func TestDopplerStageWindowSlides(t *testing.T) {
	const window = 32
	p := dopplerParams()
	slow := scattererFrames(p, window, 4, 0.5)
	// Continue from where the slow segment ended, twice as fast.
	endR := 4 - 0.5*float64(window-1)/p.FrameRate
	fast := make([]*fmcw.Frame, window)
	for i := range fast {
		tm := float64(window+i) / p.FrameRate
		d := endR - 2.5*float64(i+1)/p.FrameRate
		ret := fmcw.Return{Delay: 2 * d / fmcw.C, Amplitude: 1, AoA: math.Pi / 2}
		fast[i] = synthesize(p, []fmcw.Return{ret}, tm, nil)
	}
	mSlow := lastDopplerMap(t, slow, window)
	mFast := lastDopplerMap(t, append(slow, fast...), window)
	vSlow, _, ok1 := mSlow.PeakVelocityAtRange(4, 2)
	vFast, _, ok2 := mFast.PeakVelocityAtRange(endR, 2)
	if !ok1 || !ok2 {
		t.Fatal("missing Doppler peaks")
	}
	if vFast <= vSlow+0.5 {
		t.Fatalf("window did not slide: velocity before %v, after speed-up %v", vSlow, vFast)
	}
}

// TestTrackVelocitySurfaced runs the full velocity-aware chain over a
// straight-line approach and checks the confirmed track carries a Doppler
// radial velocity of the right sign and magnitude.
func TestTrackVelocitySurfaced(t *testing.T) {
	s := testSession(t)
	plan := radar.CompileFrontEndPlan(radar.DefaultConfig(), s.Scene.Params)
	pools := NewPools(s.Scene.Params)
	trk := NewTrackWithVelocity(radar.TrackerConfig{}, s.Scene.Radar)
	stages := append(FrontEndStagesPlanned(plan, s.Scene.Radar, pools), NewDopplerPlanned(plan, 8, 0, pools.Doppler), trk)
	p := New(s.Scene.Stream(0, 40, rand.New(rand.NewSource(17))), stages...)
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	tracks := trk.Tracks()
	if len(tracks) == 0 {
		t.Fatal("no confirmed tracks")
	}
	// At a 20 Hz frame rate the unambiguous band is ±λ·FrameRate/4; every
	// surfaced estimate must fold into it.
	nyq := s.Scene.Params.Wavelength() * s.Scene.Params.FrameRate / 4
	withV := 0
	for _, tr := range tracks {
		if !tr.HasVelocity {
			continue
		}
		withV++
		if math.Abs(tr.RadialVelocity) > nyq+1e-9 {
			t.Fatalf("velocity %v outside unambiguous band ±%v", tr.RadialVelocity, nyq)
		}
	}
	if withV == 0 {
		t.Fatal("no track carries a radial-velocity estimate")
	}
}

// TestDopplerRingArrivalOrder pins the ring's eviction order: no map until
// K frames arrived, then the burst handed to the plan holds exactly the
// observed antenna's rows of the last K frames, oldest first. Each frame's
// row is stamped with its arrival index so the order is readable.
func TestDopplerRingArrivalOrder(t *testing.T) {
	const window, antenna = 3, 1
	p := dopplerParams()
	cfg := radar.DefaultConfig()
	cfg.Workers = 1
	s := NewDopplerPlanned(radar.CompileFrontEndPlan(cfg, p), window, antenna, radar.NewDopplerPool())
	src := fmcw.NewFrame(p, 0)
	for i := 0; i < 7; i++ {
		src.Time = float64(i) / p.FrameRate
		for k, row := range src.Data {
			for j := range row {
				row[j] = complex(float64(i), float64(k))
			}
		}
		it := Item{Index: i, Frame: src}
		if err := s.Process(context.Background(), &it); err != nil {
			t.Fatal(err)
		}
		if i < window-1 {
			if it.RangeDoppler != nil {
				t.Fatalf("frame %d: map before the ring filled", i)
			}
			continue
		}
		if it.RangeDoppler == nil || it.RangeDoppler.DopplerBins != window {
			t.Fatalf("frame %d: want a %d-chirp map, got %+v", i, window, it.RangeDoppler)
		}
		if len(s.burst) != window {
			t.Fatalf("frame %d: burst holds %d rows, want %d", i, len(s.burst), window)
		}
		for k, row := range s.burst {
			if want := complex(float64(i-window+1+k), antenna); row[0] != want || row[len(row)-1] != want {
				t.Fatalf("frame %d: burst row %d holds %v, want %v (oldest first, antenna %d)", i, k, row[0], want, antenna)
			}
		}
		// The ring owns its rows: overwriting the source frame must not
		// reach the held history.
		src.Reset()
		if row := s.burst[len(s.burst)-1]; row[0] != complex(float64(i), antenna) {
			t.Fatalf("frame %d: ring aliases the pushed frame", i)
		}
	}
}

// TestDopplerStageZeroAllocsWarm asserts a warm DopplerStage.Process — the
// ring copy, the burst gather and the map computation — allocates nothing.
func TestDopplerStageZeroAllocsWarm(t *testing.T) {
	p := dopplerParams()
	cfg := radar.DefaultConfig()
	cfg.Workers = 1
	pool := radar.NewDopplerPool()
	s := NewDopplerPlanned(radar.CompileFrontEndPlan(cfg, p), 8, 0, pool)
	frames := scattererFrames(p, 4, 3, 1)
	i := 0
	step := func() {
		it := Item{Index: i, Frame: frames[i%len(frames)]}
		i++
		if err := s.Process(context.Background(), &it); err != nil {
			t.Fatal(err)
		}
		pool.Put(it.RangeDoppler)
	}
	for i < 16 {
		step()
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("warm DopplerStage.Process allocates %v per frame, want 0", allocs)
	}
}
