package dsp_test

// The slow-time FFT of a chirp burst runs fused inside
// radar.FrontEndPlan.RangeDopplerInto: per range bin it Hann-windows the
// chirps' range spectra, transforms the column with FFTInPlace and writes
// the power in fftshift order (zero velocity at Doppler bin nd/2). These
// tests hold that transform to its definition, a naive signed-frequency
// DFT, for the burst lengths this package handles by radix-2 (including
// the unrolled size 8) and by Bluestein.

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// slowTimeParams is a small radar shape: a 4-antenna array sampled at
// 128 kHz keeps the range FFT short.
func slowTimeParams() fmcw.Params {
	p := fmcw.DefaultParams()
	p.SampleRate = 128e3
	p.NumAntennas = 4
	return p
}

// randBurst draws nd chirp rows of n complex Gaussian IF samples.
func randBurst(rng *rand.Rand, nd, n int) [][]complex128 {
	rows := make([][]complex128, nd)
	for k := range rows {
		rows[k] = make([]complex128, n)
		for j := range rows[k] {
			rows[k][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return rows
}

// slowTimeMap runs the plan's slow-time FFT over rows with the given
// fan-out width.
func slowTimeMap(t *testing.T, p fmcw.Params, workers int, rows [][]complex128) *radar.RangeDopplerMap {
	t.Helper()
	cfg := radar.DefaultConfig()
	cfg.Workers = workers
	m := &radar.RangeDopplerMap{}
	if err := radar.CompileFrontEndPlan(cfg, p).RangeDopplerInto(context.Background(), m, rows, p, 0.01); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFFTShift checks the Doppler axis order for even and odd burst
// lengths: a slow-time tone at signed frequency f (cycles per burst) peaks
// at Doppler bin f + nd/2, so a static reflector (f = 0) sits at nd/2, the
// negative frequencies come first and the positive ones last.
func TestFFTShift(t *testing.T) {
	p := slowTimeParams()
	n := p.SamplesPerChirp()
	rng := rand.New(rand.NewSource(1))
	base := randBurst(rng, 1, n)[0]
	for _, nd := range []int{4, 5} {
		for f := -nd / 2; f < nd-nd/2; f++ {
			rows := make([][]complex128, nd)
			for k := range rows {
				rot := cmplx.Exp(complex(0, 2*math.Pi*float64(f*k)/float64(nd)))
				rows[k] = make([]complex128, n)
				for j, v := range base {
					rows[k][j] = v * rot
				}
			}
			m := slowTimeMap(t, p, 1, rows)
			want := f + nd/2
			for r := 0; r < m.RangeBins; r++ {
				best := 0
				for d := 1; d < nd; d++ {
					if m.At(r, d) > m.At(r, best) {
						best = d
					}
				}
				if best != want {
					t.Fatalf("nd=%d f=%d range %d: peak at Doppler bin %d, want %d", nd, f, r, best, want)
				}
			}
		}
	}
}

// TestSlowTimeFFTMatchesNaive checks the plan's fused slow-time transform
// against its definition: per range bin, Hann-window the chirps' range
// spectra, take the O(nd²) DFT across chirps at signed Doppler index
// d − nd/2, and detect power.
func TestSlowTimeFFTMatchesNaive(t *testing.T) {
	p := slowTimeParams()
	n := p.SamplesPerChirp()
	win := radar.DefaultConfig().Window.Coefficients(n)
	rng := rand.New(rand.NewSource(3))
	for _, nd := range []int{8, 7, 16, 1} {
		rows := randBurst(rng, nd, n)
		spec := make([][]complex128, nd)
		for k := range rows {
			spec[k] = dsp.WindowedFFTTo(make([]complex128, n), rows[k], win)
		}
		m := slowTimeMap(t, p, 1, rows)
		if m.RangeBins < 1 || m.RangeBins > n/2 || m.DopplerBins != nd || len(m.Power) != m.RangeBins*nd {
			t.Fatalf("nd=%d: map shape %d×%d (%d values)", nd, m.RangeBins, m.DopplerBins, len(m.Power))
		}
		dwin := dsp.Hann.Coefficients(nd)
		for r := 0; r < m.RangeBins; r++ {
			for d := 0; d < nd; d++ {
				f := float64(d - nd/2)
				var sum complex128
				for k := 0; k < nd; k++ {
					w := cmplx.Exp(complex(0, -2*math.Pi*f*float64(k)/float64(nd)))
					sum += spec[k][r] * complex(dwin[k], 0) * w
				}
				want := real(sum)*real(sum) + imag(sum)*imag(sum)
				if got := m.At(r, d); math.Abs(got-want) > 1e-9*(1+want) {
					t.Fatalf("nd=%d range %d Doppler %d: got %g, naive DFT gives %g", nd, r, d, got, want)
				}
			}
		}
	}
}

// TestSlowTimeFFTWorkerIdentity: each range-bin column is an independent
// write, so the map must be bit-identical for every worker count, for
// radix-2 and Bluestein burst lengths.
func TestSlowTimeFFTWorkerIdentity(t *testing.T) {
	p := slowTimeParams()
	rng := rand.New(rand.NewSource(4))
	for _, nd := range []int{16, 12} {
		rows := randBurst(rng, nd, p.SamplesPerChirp())
		want := slowTimeMap(t, p, 1, rows)
		for _, workers := range []int{0, 2, 8} {
			got := slowTimeMap(t, p, workers, rows)
			if got.RangeBins != want.RangeBins || got.DopplerBins != want.DopplerBins || len(got.Power) != len(want.Power) {
				t.Fatalf("nd=%d workers=%d: map shape differs from single worker", nd, workers)
			}
			for i := range want.Power {
				if math.Float64bits(got.Power[i]) != math.Float64bits(want.Power[i]) {
					t.Fatalf("nd=%d workers=%d: slow-time FFT not bit-identical to single worker at %d", nd, workers, i)
				}
			}
		}
	}
}

// TestSlowTimeFFTDegenerate covers the short-burst contracts: zero chirps
// (nil or empty) leave an empty map, even over a stale one, and a single
// chirp has one Doppler bin holding the range power (a one-point window
// is 1).
func TestSlowTimeFFTDegenerate(t *testing.T) {
	p := slowTimeParams()
	pl := radar.CompileFrontEndPlan(radar.DefaultConfig(), p)
	for name, rows := range map[string][][]complex128{"nil": nil, "empty": {}} {
		m := &radar.RangeDopplerMap{Power: make([]float64, 6), RangeBins: 2, DopplerBins: 3}
		if err := pl.RangeDopplerInto(context.Background(), m, rows, p, 0.01); err != nil {
			t.Fatalf("%s burst: %v", name, err)
		}
		if m.RangeBins != 0 || m.DopplerBins != 0 || len(m.Power) != 0 {
			t.Fatalf("%s burst left stale shape: %d×%d (%d values)", name, m.RangeBins, m.DopplerBins, len(m.Power))
		}
	}
	n := p.SamplesPerChirp()
	rows := randBurst(rand.New(rand.NewSource(5)), 1, n)
	spec := dsp.WindowedFFTTo(make([]complex128, n), rows[0], radar.DefaultConfig().Window.Coefficients(n))
	m := slowTimeMap(t, p, 1, rows)
	if m.DopplerBins != 1 || len(m.Power) != m.RangeBins {
		t.Fatalf("single chirp: map shape %d×%d (%d values)", m.RangeBins, m.DopplerBins, len(m.Power))
	}
	for r := 0; r < m.RangeBins; r++ {
		want := real(spec[r])*real(spec[r]) + imag(spec[r])*imag(spec[r])
		if got := m.At(r, 0); math.Abs(got-want) > 1e-12*(1+want) {
			t.Fatalf("single chirp range %d: got %g, want %g", r, got, want)
		}
	}
}
