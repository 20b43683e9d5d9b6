package radar

import (
	"context"
	"math"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
)

// Detection is one extracted reflection peak in polar and world coordinates.
type Detection struct {
	Range float64    // meters from the radar
	AoA   float64    // radians in [0, π]
	Power float64    // profile power at the peak
	Pos   geom.Point // world position (via the array geometry)
	Time  float64
}

// DetectInto extracts target detections from a range–angle profile into
// dst[:0] and returns the result: 2-D local maxima above the power
// thresholds, refined with quadratic interpolation in both range and angle,
// then mapped to world coordinates through the array. Peaks whose power,
// range or angle is not finite are skipped before the MaxTargets cap. The
// interpolation column and peak-finder scratch come from the plan's free
// list, so a warmed-up call allocates nothing beyond growing dst the first
// time. The profile must describe the plan's compiled shape (any profile
// produced by the plan's RangeAngleInto does).
//
//rfvet:allocfree
func (pl *FrontEndPlan) DetectInto(dst []Detection, prof *Profile, array fmcw.Array) []Detection {
	dst = dst[:0]
	if prof.RangeBins == 0 {
		return dst
	}
	maxPower := 0.0
	for _, v := range prof.Power {
		if v > maxPower {
			maxPower = v
		}
	}
	thresh := pl.cfg.MinPeakPower
	if t := maxPower * pl.cfg.MinPeakRatio; t > thresh {
		thresh = t
	}
	// Enforce a separation of about one nominal beamwidth in angle and one
	// range bin by using a Chebyshev distance of a few cells.
	sep := prof.AngleBins / (2 * prof.Params.NumAntennas)
	if sep < 2 {
		sep = 2
	}
	e, ok := pl.detFree.Get()
	if !ok {
		e = newDetExec()
	}
	peaks := e.finder.Find(prof.Power, prof.RangeBins, prof.AngleBins, thresh, sep)
	col := e.rangeCol(prof.RangeBins)
	for _, pk := range peaks {
		if len(dst) == pl.cfg.MaxTargets {
			break
		}
		// Sub-bin refinement along range (column fixed) and angle (row fixed).
		rowSlice := prof.Power[pk.Row*prof.AngleBins : (pk.Row+1)*prof.AngleBins]
		aOff := dsp.QuadraticInterp(rowSlice, pk.Col)
		for r := 0; r < prof.RangeBins; r++ {
			col[r] = prof.At(r, pk.Col)
		}
		rOff := dsp.QuadraticInterp(col, pk.Row)
		rng := prof.RangeOfBin(float64(pk.Row) + rOff)
		aoa := prof.AngleOfBin(float64(pk.Col) + aOff)
		if !finite(pk.Value) || !finite(rng) || !finite(aoa) {
			// Samples large enough to overflow the range FFT or the
			// beamforming sum leave Inf/NaN in the profile; a peak built
			// from them locates nothing, and downstream it would poison a
			// Kalman track or an event's JSON encoding.
			continue
		}
		dst = append(dst, Detection{
			Range: rng,
			AoA:   aoa,
			Power: pk.Value,
			Pos:   array.PointAt(rng, aoa),
			Time:  prof.Time,
		})
	}
	pl.detFree.Put(e)
	return dst
}

// rangeCol returns the executor's interpolation column sized to n bins,
// growing it on first use. The growth lives here rather than inline in
// DetectInto because it is a one-time warm-up cost: every later call with
// the plan's compiled shape reuses the slice, and keeping the make out of
// DetectInto's body lets its //rfvet:allocfree annotation hold. noinline
// keeps the compiler from folding the make back into DetectInto's escape
// diagnostics; the call costs one jump per detection pass.
//
//go:noinline
func (e *detExec) rangeCol(n int) []float64 {
	if cap(e.col) < n {
		e.col = make([]float64, n)
	}
	return e.col[:n]
}

// ProcessFrames runs the full front end over a frame sequence: successive
// background subtraction followed by profile computation and detection.
// Every frame must have the plan's compiled shape. The first frame serves
// only as background; len(frames)-1 detection sets are returned. Every
// step allocates its own buffers — an unpooled fmcw.Differencer, a fresh
// Profile per frame, a fresh detection slice — which makes it the batch
// reference the pooled streaming chain is tested against. The ctx is
// threaded into every range–angle pass; once it is done ProcessFrames
// returns (nil, ctx.Err()), never partial detections.
func (pl *FrontEndPlan) ProcessFrames(ctx context.Context, frames []*fmcw.Frame, array fmcw.Array) ([][]Detection, error) {
	if len(frames) < 2 {
		return nil, nil
	}
	var diff fmcw.Differencer
	out := make([][]Detection, 0, len(frames)-1)
	for _, f := range frames {
		d, ok := diff.Step(f)
		if !ok {
			continue
		}
		prof := &Profile{}
		if err := pl.RangeAngleInto(ctx, d, prof); err != nil {
			return nil, err
		}
		out = append(out, pl.DetectInto(make([]Detection, 0, pl.cfg.MaxTargets), prof, array))
	}
	return out, nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
