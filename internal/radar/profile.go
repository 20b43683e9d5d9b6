// Package radar implements the eavesdropper's FMCW processing pipeline from
// §3 and §9.1 of the paper: range FFT, digital beamforming across the
// antenna array (Eq. 2), successive-frame background subtraction,
// range–angle power profiles, peak extraction with smoothing and rejection,
// Kalman-filter multi-target tracking, and breathing-phase extraction.
//
// The same pipeline serves three roles in the reproduction: it is the
// adversary RF-Protect defends against, the measurement instrument for the
// spoofing-accuracy experiments (Fig. 9–11), and — with fake-trajectory
// disclosure — the legitimate sensor of Fig. 13.
package radar

import (
	"math"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
)

// Config tunes the processing pipeline.
type Config struct {
	AngleBins    int     // beamforming grid resolution over [0, π]
	MaxRange     float64 // ignore range bins beyond this (meters); 0 = Nyquist limit
	MinRange     float64 // ignore range bins closer than this (meters)
	Window       dsp.Window
	MinPeakPower float64 // absolute detection threshold on the power profile
	// MinPeakRatio additionally requires a peak to exceed this fraction of
	// the strongest cell in the profile; it suppresses multipath sidelobes.
	MinPeakRatio float64
	MaxTargets   int // cap on detections per frame
	// Workers bounds the fan-out width of the per-antenna FFT batches and
	// per-range-bin sweeps (<= 0 means one worker per available CPU). The
	// output is bit-identical for any value; Workers: 1 additionally runs
	// inline with no goroutines, which is what the zero-allocation
	// steady-state guarantee of the Into variants is stated for.
	Workers int
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		AngleBins:    181,
		MinRange:     0.3,
		Window:       dsp.Hann,
		MinPeakPower: 1e-6,
		MinPeakRatio: 0.12,
		MaxTargets:   8,
	}
}

// Profile is a range–angle power map: Power[r*AngleBins + a] is the power at
// range bin r, angle bin a.
//
// RangeAngleInto also leaves a summary of each range row — its maximum and
// whether it holds a NaN — which DetectInto reads to skip the rows that
// cannot hold a peak. The summary describes Power as RangeAngleInto wrote
// it: a caller that edits Power in place before DetectInto must refill the
// profile through RangeAngleInto or build a fresh Profile, which DetectInto
// scans whole. Copy a profile with Clone, never by value, so the copy does
// not share the summary storage.
type Profile struct {
	Params    fmcw.Params
	Time      float64
	RangeBins int
	AngleBins int
	Power     []float64

	// rowMax[r] is the fold m = 0; if v > m { m = v } over row r's cells
	// (NaN cells never pass the test); rowNaN[r] is set when row r holds a
	// NaN. Both have RangeBins entries once RangeAngleInto has run.
	rowMax []float64
	rowNaN []bool
}

// Clone returns a deep copy of p that shares no storage with it.
func (p *Profile) Clone() *Profile {
	cp := *p
	cp.Power = append([]float64(nil), p.Power...)
	cp.rowMax = append([]float64(nil), p.rowMax...)
	cp.rowNaN = append([]bool(nil), p.rowNaN...)
	return &cp
}

// RangeOfBin returns the range in meters at (possibly fractional) bin r.
func (p *Profile) RangeOfBin(r float64) float64 {
	n := p.Params.SamplesPerChirp()
	beat := r * p.Params.SampleRate / float64(n)
	return p.Params.DistanceForBeat(beat)
}

// AngleOfBin returns the AoA in radians at (possibly fractional) angle bin a.
func (p *Profile) AngleOfBin(a float64) float64 {
	return a * math.Pi / float64(p.AngleBins-1)
}

// At returns the power at integer bin (r, a).
func (p *Profile) At(r, a int) float64 { return p.Power[r*p.AngleBins+a] }

// normalizeConfig fills zero-valued config fields with DefaultConfig values.
func normalizeConfig(cfg Config) Config {
	def := DefaultConfig()
	if cfg.AngleBins < 2 {
		cfg.AngleBins = def.AngleBins
	}
	if cfg.MinPeakPower <= 0 {
		cfg.MinPeakPower = def.MinPeakPower
	}
	if cfg.MinPeakRatio <= 0 {
		cfg.MinPeakRatio = def.MinPeakRatio
	}
	if cfg.MaxTargets <= 0 {
		cfg.MaxTargets = def.MaxTargets
	}
	return cfg
}
