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
	"context"
	"math"
	"sync"

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
type Profile struct {
	Params    fmcw.Params
	Time      float64
	RangeBins int
	AngleBins int
	Power     []float64
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

// Processor is a per-Config cache of compiled FrontEndPlans with allocating
// convenience wrappers over them. The first call for a given frame shape
// compiles the plan (and a later shape change recompiles it); every kernel
// is then a plan call. Streaming callers hold a plan directly and use its
// Into kernels; a Processor is for one-off profiles and the batch
// reference path. Concurrent calls on one Processor are safe and overlap,
// each on its own plan executor.
type Processor struct {
	cfg Config

	mu   sync.Mutex
	plan *FrontEndPlan
}

// NewProcessor returns a Processor with the given configuration;
// zero-valued fields fall back to DefaultConfig values.
func NewProcessor(cfg Config) *Processor {
	return &Processor{cfg: normalizeConfig(cfg)}
}

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

// Config returns the processor's effective configuration.
func (pr *Processor) Config() Config { return pr.cfg }

// Plan returns the processor's compiled plan for frame shape p, compiling
// and caching one on first use or shape change.
func (pr *Processor) Plan(p fmcw.Params) *FrontEndPlan {
	pr.mu.Lock()
	pl := pr.plan
	if pl == nil || pl.params != p {
		pl = CompileFrontEndPlan(pr.cfg, p)
		pr.plan = pl
	}
	pr.mu.Unlock()
	return pl
}

// RangeAngle computes the range–angle power profile of a (typically
// background-subtracted) frame into a fresh Profile: per-antenna windowed
// range FFT, then Eq. 2 beamforming at every range bin. Cancellation is
// threaded into the FFT batch and the beamforming fan-out; once ctx is done
// it returns (nil, ctx.Err()). It is the allocating wrapper over
// FrontEndPlan.RangeAngleInto.
func (pr *Processor) RangeAngle(ctx context.Context, f *fmcw.Frame) (*Profile, error) {
	prof := &Profile{}
	if err := pr.Plan(f.Params).RangeAngleInto(ctx, f, prof); err != nil {
		return nil, err
	}
	return prof, nil
}

// BackgroundSubtract returns cur - prev, the standard static-reflector
// rejection (§3).
func BackgroundSubtract(cur, prev *fmcw.Frame) *fmcw.Frame { return cur.Sub(prev) }
