package radar

import (
	"context"
	"math"
	"math/cmplx"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/parallel"
)

// This file holds the compiled front end: one FrontEndPlan per
// (Config, fmcw.Params) shape owns every input-independent table the
// range–angle, range–Doppler, and detection kernels need — window
// coefficients, the steering matrix in both layouts, range-bin limits — plus
// free lists of per-call executor scratch. The plan replaces the three
// hand-rolled scratch structs (raScratch, rdScratch, and Detect's per-call
// buffers) that previous revisions grew independently.
//
// Lifecycle and thread-safety contract:
//
//   - PlanFrontEnd returns the process-wide plan for a shape, compiling it
//     once (CompileFrontEndPlan builds a private one); the tables are
//     immutable afterwards and shared by every goroutine.
//   - Each kernel call checks an executor out of the plan's free list and
//     returns it on exit, so concurrent calls on one plan OVERLAP (each gets
//     its own spectra/accumulator buffers). The free lists are
//     parallel.FreeLists, keeping the warmed-up steady state at exactly
//     zero allocations per call.
//   - Executors feed per-call state (frame, profile) to their pre-bound
//     fan-out closures through fields, cleared on exit so a parked executor
//     never retains a caller's pooled buffers.
//
// Every kernel is bit-identical to the pre-plan implementation: the
// beamforming sweep accumulates the same complex sum in the same k-order
// (just in split real/imaginary registers), the fused windowed FFT performs
// the same multiplies in a different pass, and the batched fan-out only
// changes how bins are grouped onto work items, never what a bin computes.

// beamBatch is the number of range bins one fan-out work item sweeps. The
// old code fanned out one closure invocation per bin; batching amortizes
// the dynamic work-claiming overhead over enough arithmetic to hide it
// while still leaving plenty of items to balance across workers.
const beamBatch = 16

// beamMaxAVXAnt caps the antenna count the AVX sweep handles: its packed
// (re, im) input lives in a fixed-size stack array so concurrently-swept
// rows never share scratch. Larger arrays fall back to the scalar kernel.
const beamMaxAVXAnt = 32

// FrontEndPlan is the compiled front end for one radar shape. Fetch the
// shared one with PlanFrontEnd: all methods are safe for concurrent use.
type FrontEndPlan struct {
	cfg    Config
	params fmcw.Params
	n      int // samples per chirp = range-FFT length
	nAnt   int
	minBin int
	maxBin int

	win []float64 // fast-time window coefficients, length n

	// steering[a][k] is the beamforming weight conj(steer) of Eq. 2 for
	// angle bin a, antenna k — the layout the rest of the package (and its
	// tests) historically used. steerRe/steerIm hold the same values
	// transposed to antenna-major planes (steerRe[k][a]), the layout the
	// beamforming inner loop streams through; steerReFlat/steerImFlat are
	// the contiguous backings of those planes (row k at offset k*AngleBins),
	// which the vectorized sweep addresses with a single base pointer and a
	// stride.
	steering    [][]complex128
	steerRe     [][]float64
	steerIm     [][]float64
	steerReFlat []float64
	steerImFlat []float64

	raFree   parallel.FreeList[*raExec]
	rdShapes parallel.Cache[int, *rdShape] // keyed by burst length nd
	detFree  parallel.FreeList[*detExec]
}

// frontEndKey identifies one compiled front-end shape: the normalized
// processing configuration plus the frame parameters.
type frontEndKey struct {
	cfg    Config
	params fmcw.Params
}

var frontEndPlans parallel.Cache[frontEndKey, *FrontEndPlan]

// PlanFrontEnd returns the process-wide plan for a radar shape, compiling
// it on first use; zero-valued cfg fields are normalized first, so configs
// that normalize alike share one plan. It is the front-end sibling of
// fmcw.PlanSynth: every daemon room, pipeline and batch caller of one shape
// shares the tables and the warmed executor free lists.
func PlanFrontEnd(cfg Config, p fmcw.Params) *FrontEndPlan {
	return frontEndPlans.Get(frontEndKey{cfg: normalizeConfig(cfg), params: p}, func(k frontEndKey) *FrontEndPlan {
		return CompileFrontEndPlan(k.cfg, k.params)
	})
}

// CompileFrontEndPlan builds a private front-end plan for one radar shape,
// normalizing zero-valued cfg fields exactly as PlanFrontEnd does. The call
// also warms the dsp plan for the range-FFT size so the first frame's
// fan-out never races plan construction.
func CompileFrontEndPlan(cfg Config, p fmcw.Params) *FrontEndPlan {
	cfg = normalizeConfig(cfg)
	n := p.SamplesPerChirp()
	pl := &FrontEndPlan{
		cfg:      cfg,
		params:   p,
		n:        n,
		nAnt:     p.NumAntennas,
		minBin:   minRangeBin(cfg, p, n),
		maxBin:   maxRangeBin(cfg, p, n),
		win:      cfg.Window.Coefficients(n),
		steering: steeringTable(cfg.AngleBins, p),
	}
	bins := cfg.AngleBins
	reBack := make([]float64, pl.nAnt*bins)
	imBack := make([]float64, pl.nAnt*bins)
	pl.steerReFlat, pl.steerImFlat = reBack, imBack
	pl.steerRe = make([][]float64, pl.nAnt)
	pl.steerIm = make([][]float64, pl.nAnt)
	for k := 0; k < pl.nAnt; k++ {
		pl.steerRe[k], reBack = reBack[:bins:bins], reBack[bins:]
		pl.steerIm[k], imBack = imBack[:bins:bins], imBack[bins:]
		for a := 0; a < bins; a++ {
			w := pl.steering[a][k]
			pl.steerRe[k][a] = real(w)
			pl.steerIm[k][a] = imag(w)
		}
	}
	dsp.FFTInPlace(make([]complex128, n))
	return pl
}

// steeringTable builds the Eq. 2 matched-filter steering matrix:
// steering[a][k] = exp(+j2πkd cosθ_a/λ), the conjugate of the synthesis
// steering phase.
func steeringTable(bins int, p fmcw.Params) [][]complex128 {
	lambda := p.Wavelength()
	d := p.Spacing()
	st := make([][]complex128, bins)
	for a := 0; a < bins; a++ {
		theta := float64(a) * math.Pi / float64(bins-1)
		row := make([]complex128, p.NumAntennas)
		for k := 0; k < p.NumAntennas; k++ {
			row[k] = cmplx.Exp(complex(0, 2*math.Pi*float64(k)*d*math.Cos(theta)/lambda))
		}
		st[a] = row
	}
	return st
}

func maxRangeBin(cfg Config, p fmcw.Params, n int) int {
	maxBin := n / 2
	if cfg.MaxRange > 0 {
		b := int(math.Ceil(p.BeatFrequency(cfg.MaxRange) / p.SampleRate * float64(n)))
		if b < maxBin {
			maxBin = b
		}
	}
	return maxBin
}

func minRangeBin(cfg Config, p fmcw.Params, n int) int {
	if cfg.MinRange <= 0 {
		return 0
	}
	return int(p.BeatFrequency(cfg.MinRange) / p.SampleRate * float64(n))
}

// raExec is one range–angle execution context: the per-call buffers and
// pre-bound fan-out closures of a single RangeAngleInto call in flight.
type raExec struct {
	pl      *FrontEndPlan
	spectra [][]complex128 // one windowed range-FFT row per antenna
	fftFn   func(k int)
	beamFn  func(b int)
	// Per-call state read by the closures; cleared on exit.
	frame *fmcw.Frame
	prof  *Profile
}

func (pl *FrontEndPlan) newRAExec() *raExec {
	e := &raExec{pl: pl}
	backing := make([]complex128, pl.nAnt*pl.n)
	e.spectra = make([][]complex128, pl.nAnt)
	for k := range e.spectra {
		e.spectra[k], backing = backing[:pl.n:pl.n], backing[pl.n:]
	}
	e.fftFn = func(k int) {
		dsp.WindowedFFTTo(e.spectra[k], e.frame.Data[k], pl.win)
	}
	e.beamFn = func(b int) {
		r0 := pl.minBin + b*beamBatch
		r1 := r0 + beamBatch
		if r1 > pl.maxBin {
			r1 = pl.maxBin
		}
		e.beamSweep(r0, r1)
	}
	return e
}

// beamSweep runs Eq. 2 beamforming over range bins [r0, r1). For each bin
// it computes, per angle, the complex sum Σ_k spectra[k][r]·steering[a][k]
// — products and additions in ascending k order — with the accumulator
// split into real/imaginary registers. The AVX sweep runs four angle bins
// at a time; without AVX, for fewer than four angle bins, or above
// beamMaxAVXAnt antennas, beamRowScalar runs the identical sequence one
// angle at a time. Two facts make the split-plane form bit-safe against the
// complex-multiply definition: amd64 performs no FMA contraction on float64
// expressions, so the split-plane products round exactly like the complex
// multiply; and seeding from antenna 0 (whose steering weight is exp(0) =
// 1 at every angle) instead of from zero can only flip the sign of a zero
// accumulator, which the final squaring maps to +0 either way.
//
// Each row's kernel also folds the row summary the detector prunes with
// (Profile.rowMax, rowNaN) as it stores the powers, so no second pass
// reads the row back.
func (e *raExec) beamSweep(r0, r1 int) {
	pl := e.pl
	bins := pl.cfg.AngleBins
	vector := useBeamAVX && bins >= 4 && pl.nAnt <= beamMaxAVXAnt
	for r := r0; r < r1; r++ {
		row := e.prof.Power[r*bins : (r+1)*bins : (r+1)*bins]
		var m float64
		var nan bool
		if vector {
			m, nan = e.beamRowAVX(row, r)
		} else {
			m, nan = e.beamRowScalar(row, r, 0, 0, false)
		}
		e.prof.rowMax[r], e.prof.rowNaN[r] = m, nan
	}
}

// beamRowAVX runs the row kernel four angle bins at a time through the
// hand-written AVX sweep, with a scalar tail for the last len(row)%4 bins.
// Vectorizing across angle bins is bit-safe by construction: each lane
// performs exactly beamRowScalar's multiply/add sequence for its own angle
// (VMULPD/VADDPD/VSUBPD are lanewise IEEE-754 double ops, and amd64 never
// contracts to FMA), so every lane rounds identically to the scalar path.
// The sweep also returns the row summary, folded per lane with VMAXPD in
// the operand order that keeps the accumulator on a NaN exactly as
// beamRowScalar's v > m test does; the max of non-NaN values does not depend
// on the fold order, so the lanes and the tail combine to the same value.
func (e *raExec) beamRowAVX(row []float64, r int) (rowMax float64, rowNaN bool) {
	pl := e.pl
	// Pack the per-bin spectra on the stack: at Workers > 1 the rows of one
	// sweep run concurrently on one raExec, so per-exec scratch would race.
	// beamSweepAVX is //go:noescape, so sbuf never reaches the heap.
	var sbuf [2 * beamMaxAVXAnt]float64
	s := sbuf[:2*pl.nAnt]
	for k := 0; k < pl.nAnt; k++ {
		v := e.spectra[k][r]
		s[2*k] = real(v)
		s[2*k+1] = imag(v)
	}
	n4 := len(row) &^ 3
	rowMax, rowNaN = beamSweepAVX(&row[0], n4, pl.nAnt, &s[0], &pl.steerReFlat[0], &pl.steerImFlat[0], pl.cfg.AngleBins)
	if n4 < len(row) {
		rowMax, rowNaN = e.beamRowScalar(row, r, n4, rowMax, rowNaN)
	}
	return rowMax, rowNaN
}

// beamRowScalar computes angle bins [a0, len(row)) of range bin r: an
// antenna-0 seed, then ascending-k accumulation in split real/imaginary
// planes — the sequence every AVX lane executes. It is the whole row when
// the AVX sweep is off and the tail bins when it is on. Angle-outer loops
// with register accumulators leave no shared scratch for concurrently swept
// rows of one raExec to race on. It continues the row summary (m, nan) of
// bins [0, a0) over the bins it writes and returns it: m is the fold
// if v > m { m = v }, which passes over NaN, and nan records one.
func (e *raExec) beamRowScalar(row []float64, r, a0 int, m float64, nan bool) (float64, bool) {
	pl := e.pl
	s0 := e.spectra[0][r]
	for a := a0; a < len(row); a++ {
		re, im := real(s0), imag(s0)
		for k := 1; k < pl.nAnt; k++ {
			sk := e.spectra[k][r]
			skr, ski := real(sk), imag(sk)
			wr := pl.steerRe[k][a]
			wi := pl.steerIm[k][a]
			re += skr*wr - ski*wi
			im += skr*wi + ski*wr
		}
		v := re*re + im*im
		row[a] = v
		if v > m {
			m = v
		}
		nan = nan || v != v
	}
	return m, nan
}

// RangeAngleInto computes the range–angle power profile of f into prof,
// reusing prof.Power's capacity when it suffices. The frame must have the
// shape the plan was compiled for. Output is bit-identical to the pre-plan
// kernel for any worker count and any prior contents of prof; after the
// executor free list is warm, a Workers: 1 call allocates nothing.
// Concurrent calls on one plan are safe and overlap.
//
// On cancellation prof holds partially written garbage and must be
// discarded (or simply passed to the next call, which overwrites it).
//
//rfvet:allocfree
func (pl *FrontEndPlan) RangeAngleInto(ctx context.Context, f *fmcw.Frame, prof *Profile) error {
	if prof == nil {
		panic("radar: RangeAngleInto with nil profile")
	}
	if f.Params != pl.params {
		panic("radar: RangeAngleInto on a frame shape the plan was not compiled for")
	}
	e, ok := pl.raFree.Get()
	if !ok {
		e = pl.newRAExec()
	}
	e.frame, e.prof = f, prof

	bins := pl.cfg.AngleBins
	prof.Params = f.Params
	prof.Time = f.Time
	prof.RangeBins = pl.maxBin
	prof.AngleBins = bins
	prof.Power = growFloats(prof.Power, pl.maxBin*bins)
	prof.rowMax = growFloats(prof.rowMax, pl.maxBin)
	prof.rowNaN = growBools(prof.rowNaN, pl.maxBin)
	// The beamforming sweep writes only rows [minBin, maxBin); zero the
	// skipped near-range rows so a reused Power matches a fresh one exactly,
	// and give them the summary of a zero row.
	head := prof.Power[:pl.minBin*bins]
	for i := range head {
		head[i] = 0
	}
	for r := 0; r < pl.minBin; r++ {
		prof.rowMax[r], prof.rowNaN[r] = 0, false
	}
	// Windowed range FFT per antenna, then Eq. 2 beamforming over batches
	// of range bins; every work item writes only its own rows, so any
	// fan-out width yields the same bits.
	err := parallel.ForEachCtx(ctx, pl.nAnt, pl.cfg.Workers, e.fftFn)
	if err == nil {
		nb := (pl.maxBin - pl.minBin + beamBatch - 1) / beamBatch
		err = parallel.ForEachCtx(ctx, nb, pl.cfg.Workers, e.beamFn)
	}
	e.frame, e.prof = nil, nil
	pl.raFree.Put(e)
	return err
}

// rdShape is the per-burst-length slice of the plan: the slow-time window
// plus the executor free list for that length. Range–Doppler bursts change
// length while a sliding window fills, so the plan keeps one shape per nd.
type rdShape struct {
	nd   int
	dwin []float64 // slow-time Hann, length nd
	free parallel.FreeList[*rdExec]
}

// rdExec is one range–Doppler execution context.
type rdExec struct {
	pl      *FrontEndPlan
	spectra [][]complex128 // one windowed range-FFT row per chirp
	cols    [][]complex128 // one slow-time column per fan-out batch
	fftFn   func(k int)
	colFn   func(b int)
	// Per-call state read by the closures; cleared on exit.
	rows [][]complex128
	m    *RangeDopplerMap
}

// newRDShape builds the plan slice for burst length nd. It also warms the
// slow-time dsp plan; size 8 (the standard Doppler window) dispatches to
// the unrolled kernel.
func newRDShape(nd int) *rdShape {
	dsp.FFTInPlace(make([]complex128, nd))
	return &rdShape{nd: nd, dwin: dsp.Hann.Coefficients(nd)}
}

func (pl *FrontEndPlan) newRDExec(sh *rdShape) *rdExec {
	e := &rdExec{pl: pl}
	nd := sh.nd
	fast := make([]complex128, nd*pl.n)
	e.spectra = make([][]complex128, nd)
	for k := range e.spectra {
		e.spectra[k], fast = fast[:pl.n:pl.n], fast[pl.n:]
	}
	nb := (pl.maxBin + beamBatch - 1) / beamBatch
	slow := make([]complex128, nb*nd)
	e.cols = make([][]complex128, nb)
	for b := range e.cols {
		e.cols[b], slow = slow[:nd:nd], slow[nd:]
	}
	e.fftFn = func(k int) {
		dsp.WindowedFFTTo(e.spectra[k], e.rows[k], pl.win)
	}
	e.colFn = func(b int) {
		r0 := b * beamBatch
		r1 := r0 + beamBatch
		if r1 > pl.maxBin {
			r1 = pl.maxBin
		}
		col := e.cols[b]
		half := (nd + 1) / 2
		for r := r0; r < r1; r++ {
			for k := 0; k < nd; k++ {
				col[k] = e.spectra[k][r] * complex(sh.dwin[k], 0)
			}
			dsp.FFTInPlace(col)
			// Fused fftshift + power detection: FFTShift(x)[d] =
			// x[(d+half)%nd], so index the shifted order directly instead
			// of materializing a shifted copy.
			row := e.m.Power[r*nd : (r+1)*nd]
			for d := range row {
				v := col[(d+half)%nd]
				row[d] = real(v)*real(v) + imag(v)*imag(v)
			}
		}
	}
	return e
}

// RangeDopplerInto computes the range–Doppler map of a chirp burst into m,
// reusing m.Power's capacity when it suffices. rows holds one antenna's IF
// samples per chirp, oldest first, uniformly spaced by pri; p must be the
// parameters the plan was compiled for and every row must be one chirp
// long. Output is bit-identical to the pre-plan kernel for any worker
// count; after the per-burst-length executor free list is warm, a
// Workers: 1 call allocates nothing (a sliding window still filling changes
// the burst length every frame, so the steady state begins once the window
// is full). Concurrent calls on one plan are safe and overlap.
//
// On cancellation m holds partially written garbage and must be discarded
// (or passed to the next call, which overwrites it).
//
//rfvet:allocfree
func (pl *FrontEndPlan) RangeDopplerInto(ctx context.Context, m *RangeDopplerMap, rows [][]complex128, p fmcw.Params, pri float64) error {
	if m == nil {
		panic("radar: RangeDopplerInto with nil map")
	}
	if len(rows) == 0 {
		*m = RangeDopplerMap{Power: m.Power[:0]}
		return nil
	}
	if p != pl.params {
		panic("radar: RangeDopplerInto on a chirp shape the plan was not compiled for")
	}
	for _, row := range rows {
		if len(row) != pl.n {
			panic("radar: RangeDopplerInto row length differs from the plan's samples per chirp")
		}
	}
	nd := len(rows)
	sh := pl.rdShapes.Get(nd, newRDShape)
	e, ok := sh.free.Get()
	if !ok {
		e = pl.newRDExec(sh)
	}
	e.rows, e.m = rows, m

	m.Params = p
	m.PRI = pri
	m.RangeBins = pl.maxBin
	m.DopplerBins = nd
	m.Power = growFloats(m.Power, pl.maxBin*nd)
	// Range FFT per chirp, then slow-time FFT + shift + power per batch of
	// range bins; disjoint destinations per work item keep any fan-out
	// width bit-identical.
	err := parallel.ForEachCtx(ctx, nd, pl.cfg.Workers, e.fftFn)
	if err == nil {
		nb := (pl.maxBin + beamBatch - 1) / beamBatch
		err = parallel.ForEachCtx(ctx, nb, pl.cfg.Workers, e.colFn)
	}
	e.rows, e.m = nil, nil
	sh.free.Put(e)
	return err
}

// growFloats returns s resized to n, reallocating only when capacity is
// short. It is the warm-up path of the profile/map destinations, kept out
// of the //rfvet:allocfree executors (and out of their inlined bodies, via
// noinline) because the reallocation happens once per destination, not per
// frame; reused capacity keeps its prior contents, which the executors
// overwrite or zero explicitly.
//
//go:noinline
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// growBools is growFloats for the profile's per-row NaN flags.
//
//go:noinline
func growBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}

// detExec is one detection execution context: the reusable 2-D peak finder.
type detExec struct {
	finder dsp.Peak2DFinder
}

// newDetExec builds an empty executor. noinline keeps the one-time
// allocation out of DetectInto's //rfvet:allocfree escape diagnostics.
//
//go:noinline
func newDetExec() *detExec { return new(detExec) }
