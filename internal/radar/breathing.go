package radar

import (
	"math"
	"math/cmplx"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
)

// BreathingExtractor recovers the chest-motion phase signal of a static
// target from a frame sequence, the technique of Adib et al. (CHI'15) that
// §11.4 spoofs: the carrier phase at the target's range bin oscillates with
// chest displacement δ as 4π·δ/λ.
type BreathingExtractor struct {
	Antenna int // array element to use (phase is coherent across elements)
}

// rangeBinOf returns the FFT bin index for a target at the given distance.
func rangeBinOf(p fmcw.Params, distance float64) int {
	n := p.SamplesPerChirp()
	return int(math.Round(p.BeatFrequency(distance) / p.SampleRate * float64(n)))
}

// PhaseSeries returns the unwrapped phase at the range bin nearest to
// distance, one sample per frame, along with the frame times. It is the
// batch wrapper over NewStream/Step.
func (b BreathingExtractor) PhaseSeries(frames []*fmcw.Frame, distance float64) (times, phase []float64) {
	if len(frames) == 0 {
		return nil, nil
	}
	ps := b.NewStream(frames[0].Params, distance)
	for _, f := range frames {
		ps.Step(f)
	}
	return ps.Series()
}

// PhaseStream is the streaming form of PhaseSeries: feed it frames one at a
// time and it extracts and unwraps the phase at its range bin incrementally,
// holding only one sample of unwrap state per step (the accumulated series
// is the output, not working memory). The unwrap is the classic ±2π offset
// recurrence: a jump of more than π between successive wrapped samples
// shifts every later sample by ∓2π.
type PhaseStream struct {
	bin    int
	ant    int
	win    []float64
	x      []complex128
	times  []float64
	phase  []float64
	prev   float64 // previous wrapped sample
	offset float64 // accumulated unwrap offset
}

// NewStream returns a PhaseStream for frames with the given parameters,
// monitoring the range bin nearest to distance.
func (b BreathingExtractor) NewStream(p fmcw.Params, distance float64) *PhaseStream {
	n := p.SamplesPerChirp()
	ant := b.Antenna
	if ant < 0 || ant >= p.NumAntennas {
		ant = 0
	}
	return &PhaseStream{
		bin: rangeBinOf(p, distance),
		ant: ant,
		win: dsp.Hann.Coefficients(n),
		x:   make([]complex128, n),
	}
}

// Step consumes the next frame and returns its capture time and unwrapped
// phase sample.
func (ps *PhaseStream) Step(f *fmcw.Frame) (t, unwrapped float64) {
	w := cmplx.Phase(dsp.WindowedFFTTo(ps.x, f.Data[ps.ant], ps.win)[ps.bin])
	unwrapped = w
	if len(ps.phase) > 0 {
		d := w - ps.prev
		if d > math.Pi {
			ps.offset -= 2 * math.Pi
		} else if d < -math.Pi {
			ps.offset += 2 * math.Pi
		}
		unwrapped = w + ps.offset
	}
	ps.prev = w
	ps.times = append(ps.times, f.Time)
	ps.phase = append(ps.phase, unwrapped)
	return f.Time, unwrapped
}

// Series returns the accumulated frame times and unwrapped phase samples.
func (ps *PhaseStream) Series() (times, phase []float64) { return ps.times, ps.phase }

// EstimateRate returns the breathing rate in Hz from an unwrapped phase
// series sampled at frameRate.
func EstimateRate(phase []float64, frameRate float64) float64 {
	// Detrend: remove the linear component so slow drift does not leak into
	// the rate estimate.
	d := detrend(phase)
	return dsp.DominantFrequency(d, frameRate)
}

// detrend removes the least-squares line from x.
func detrend(x []float64) []float64 {
	n := len(x)
	if n < 2 {
		out := make([]float64, n)
		copy(out, x)
		return out
	}
	var sx, sy, sxx, sxy float64
	for i, v := range x {
		fi := float64(i)
		sx += fi
		sy += v
		sxx += fi * fi
		sxy += fi * v
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	var slope, intercept float64
	if den != 0 {
		slope = (fn*sxy - sx*sy) / den
		intercept = (sy - slope*sx) / fn
	} else {
		intercept = sy / fn
	}
	out := make([]float64, n)
	for i, v := range x {
		out[i] = v - (intercept + slope*float64(i))
	}
	return out
}
