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
// peak-finder scratch comes from the plan's free list, so a warmed-up call
// allocates nothing beyond growing dst the first time. The profile must
// describe the plan's compiled shape (any profile produced by the plan's
// RangeAngleInto does).
//
// A profile filled by RangeAngleInto carries per-row maxima and NaN flags:
// the strongest cell is the max of the row maxima (the same value as a fold
// over every cell, since the max of non-NaN values does not depend on the
// order), and the peak finder skips the rows that cannot pass the
// threshold. A profile without the summary is scanned whole. The
// detections are the same bits either way.
//
//rfvet:allocfree
func (pl *FrontEndPlan) DetectInto(dst []Detection, prof *Profile, array fmcw.Array) []Detection {
	dst = dst[:0]
	if prof.RangeBins == 0 {
		return dst
	}
	rowMax, rowNaN := prof.rowMax, prof.rowNaN
	if len(rowMax) != prof.RangeBins || len(rowNaN) != prof.RangeBins {
		rowMax, rowNaN = nil, nil
	}
	maxPower := 0.0
	cells := prof.Power
	if rowMax != nil {
		cells = rowMax
	}
	for _, v := range cells {
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
	peaks := e.finder.FindRows(prof.Power, prof.RangeBins, prof.AngleBins, rowMax, rowNaN, thresh, sep)
	for _, pk := range peaks {
		if len(dst) == pl.cfg.MaxTargets {
			break
		}
		// Sub-bin refinement along range (column fixed) and angle (row fixed).
		rowSlice := prof.Power[pk.Row*prof.AngleBins : (pk.Row+1)*prof.AngleBins]
		aOff := dsp.QuadraticInterp(rowSlice, pk.Col)
		rOff := columnInterp(prof.Power, prof.RangeBins, prof.AngleBins, pk.Row, pk.Col)
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

// columnInterp is dsp.QuadraticInterp along column c of the rows×cols
// row-major grid g at row r, reading only the three cells it fits: boundary
// rows return 0, as QuadraticInterp's do.
func columnInterp(g []float64, rows, cols, r, c int) float64 {
	if r <= 0 || r >= rows-1 {
		return 0
	}
	return dsp.QuadraticOffset(g[(r-1)*cols+c], g[r*cols+c], g[(r+1)*cols+c])
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
