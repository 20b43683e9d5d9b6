package radar

import (
	"context"
	"math"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
)

// Doppler processing: the alternative static-rejection strategy §3 mentions
// ("e.g. by background subtraction or doppler shift filtering"). A burst of
// chirps at a fixed repetition interval is processed with a range FFT per
// chirp followed by an FFT across chirps at each range bin; static clutter
// lands in the zero-Doppler column and moving targets spread out by radial
// velocity v at Doppler frequency 2v/λ.
//
// This module also exposes the chirp-coherent view of RF-Protect's ghost:
// the tag's free-running switch gives the shifted reflection a (aliased)
// Doppler signature, so Doppler-based static rejection does NOT remove it —
// the tag survives both of the paper's static-rejection strategies.

// RangeDopplerMap is a 2-D power map over range and Doppler bins.
type RangeDopplerMap struct {
	Params      fmcw.Params
	PRI         float64 // chirp repetition interval in seconds
	RangeBins   int
	DopplerBins int
	// Power[r*DopplerBins + d]; Doppler bins are fftshifted so bin
	// DopplerBins/2 is zero velocity.
	Power []float64
}

// VelocityOfBin converts a (possibly fractional) shifted Doppler bin to
// radial velocity in m/s (positive = approaching). An approaching target's
// delay shrinks chirp to chirp, so its carrier phase 2π·f_c·τ rotates
// negatively: approach maps to negative Doppler bins.
func (m *RangeDopplerMap) VelocityOfBin(d float64) float64 {
	fd := (d - float64(m.DopplerBins)/2) / (float64(m.DopplerBins) * m.PRI)
	return -fd * m.Params.Wavelength() / 2
}

// BinOfVelocity inverts VelocityOfBin.
func (m *RangeDopplerMap) BinOfVelocity(v float64) float64 {
	fd := -2 * v / m.Params.Wavelength()
	return fd*float64(m.DopplerBins)*m.PRI + float64(m.DopplerBins)/2
}

// RangeOfBin converts a range bin to meters.
func (m *RangeDopplerMap) RangeOfBin(r float64) float64 {
	n := m.Params.SamplesPerChirp()
	beat := r * m.Params.SampleRate / float64(n)
	return m.Params.DistanceForBeat(beat)
}

// BinOfRange inverts RangeOfBin (the result may be fractional).
func (m *RangeDopplerMap) BinOfRange(rangeM float64) float64 {
	n := m.Params.SamplesPerChirp()
	return m.Params.BeatFrequency(rangeM) / m.Params.SampleRate * float64(n)
}

// At returns the power at (range bin, shifted Doppler bin).
func (m *RangeDopplerMap) At(r, d int) float64 { return m.Power[r*m.DopplerBins+d] }

// MaxUnambiguousVelocity returns the Nyquist velocity λ/(4·PRI).
func (m *RangeDopplerMap) MaxUnambiguousVelocity() float64 {
	return m.Params.Wavelength() / (4 * m.PRI)
}

// RangeDoppler computes the range–Doppler map of a chirp burst on one
// antenna into a fresh map; chirps must share parameters and be uniformly
// spaced by pri, and an empty burst yields an empty map. Cancellation is
// threaded into the range-FFT batch and the per-range-bin slow-time
// fan-out; once ctx is done it returns (nil, ctx.Err()). The map is
// bit-identical for any worker count: each chirp's range FFT and each range
// bin's Doppler column are independent work items writing disjoint
// destinations. It is the allocating wrapper over
// FrontEndPlan.RangeDopplerInto.
func (pr *Processor) RangeDoppler(ctx context.Context, chirps []*fmcw.Frame, antenna int, pri float64) (*RangeDopplerMap, error) {
	m := &RangeDopplerMap{}
	if len(chirps) == 0 {
		return m, nil
	}
	if err := pr.Plan(chirps[0].Params).RangeDopplerInto(ctx, m, chirps, antenna, pri); err != nil {
		return nil, err
	}
	return m, nil
}

// PeakVelocityAtRange extracts the dominant Doppler peak in the range rows
// within ±search bins of the given range and returns its sub-bin
// interpolated radial velocity and power. It reports ok == false when the
// range falls outside the map or the searched rows hold no power — the
// per-track velocity primitive behind Tracker.AttachVelocities.
func (m *RangeDopplerMap) PeakVelocityAtRange(rangeM float64, search int) (velocity, power float64, ok bool) {
	if m.RangeBins == 0 || m.DopplerBins == 0 {
		return 0, 0, false
	}
	r0 := int(math.Round(m.BinOfRange(rangeM)))
	if r0 < 0 || r0 >= m.RangeBins {
		return 0, 0, false
	}
	if search < 0 {
		search = 0
	}
	bestR, bestD, bestP := -1, -1, 0.0
	for r := r0 - search; r <= r0+search; r++ {
		if r < 0 || r >= m.RangeBins {
			continue
		}
		row := m.Power[r*m.DopplerBins : (r+1)*m.DopplerBins]
		for d, v := range row {
			if v > bestP {
				bestR, bestD, bestP = r, d, v
			}
		}
	}
	if bestR < 0 || bestP == 0 {
		return 0, 0, false
	}
	row := m.Power[bestR*m.DopplerBins : (bestR+1)*m.DopplerBins]
	dOff := dsp.QuadraticInterp(row, bestD)
	return m.VelocityOfBin(float64(bestD) + dOff), bestP, true
}

// RejectStatic zeroes the zero-Doppler ridge (±guard bins) in place,
// returning the map — Doppler-based static-reflector rejection.
func (m *RangeDopplerMap) RejectStatic(guard int) *RangeDopplerMap {
	if m.DopplerBins == 0 {
		return m
	}
	center := m.DopplerBins / 2
	for r := 0; r < m.RangeBins; r++ {
		for d := center - guard; d <= center+guard; d++ {
			if d >= 0 && d < m.DopplerBins {
				m.Power[r*m.DopplerBins+d] = 0
			}
		}
	}
	return m
}

// MovingTarget is a detection in range–Doppler space.
type MovingTarget struct {
	Range    float64 // meters
	Velocity float64 // m/s radial, positive approaching
	Power    float64
}

// DetectMoving extracts moving targets from a static-rejected map: 2-D
// peaks above threshold·maxPower.
func (m *RangeDopplerMap) DetectMoving(thresholdFrac float64, maxTargets int) []MovingTarget {
	if len(m.Power) == 0 {
		return nil
	}
	maxPower := 0.0
	for _, v := range m.Power {
		if v > maxPower {
			maxPower = v
		}
	}
	if maxPower == 0 {
		return nil
	}
	peaks := dsp.FindPeaks2D(m.Power, m.RangeBins, m.DopplerBins, thresholdFrac*maxPower, 2)
	if maxTargets > 0 && len(peaks) > maxTargets {
		peaks = peaks[:maxTargets]
	}
	out := make([]MovingTarget, 0, len(peaks))
	for _, pk := range peaks {
		rowSlice := m.Power[pk.Row*m.DopplerBins : (pk.Row+1)*m.DopplerBins]
		dOff := dsp.QuadraticInterp(rowSlice, pk.Col)
		col := make([]float64, m.RangeBins)
		for r := 0; r < m.RangeBins; r++ {
			col[r] = m.At(r, pk.Col)
		}
		rOff := dsp.QuadraticInterp(col, pk.Row)
		out = append(out, MovingTarget{
			Range:    m.RangeOfBin(float64(pk.Row) + rOff),
			Velocity: m.VelocityOfBin(float64(pk.Col) + dOff),
			Power:    pk.Value,
		})
	}
	return out
}

// AliasedDoppler folds a raw Doppler frequency into the unambiguous band
// (-PRF/2, PRF/2] — where the ghost's switching tone lands in a coherent
// processor.
func AliasedDoppler(freq, pri float64) float64 {
	prf := 1 / pri
	f := math.Mod(freq, prf)
	if f > prf/2 {
		f -= prf
	} else if f <= -prf/2 {
		f += prf
	}
	return f
}
