package radar

import (
	"context"
	"math"
	"math/cmplx"
	"sync"

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
//   - CompileFrontEndPlan builds a plan once; the tables are immutable
//     afterwards and shared by every goroutine.
//   - Each kernel call checks an executor out of the plan's free list and
//     returns it on exit, so concurrent calls on one plan OVERLAP (each gets
//     its own spectra/accumulator buffers) instead of serializing the way
//     the old per-Processor scratch mutex forced. The free lists are plain
//     mutex-guarded stacks the GC never empties, keeping the warmed-up
//     steady state at exactly zero allocations per call.
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
// rows never share scratch. Larger arrays fall back to the scalar kernels.
const beamMaxAVXAnt = 32

// FrontEndPlan is the compiled front end for one radar shape. Compile it
// once (or let a Processor compile it lazily) and share it: all methods are
// safe for concurrent use.
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

	raMu   sync.Mutex
	raFree []*raExec

	rdMu     sync.Mutex
	rdShapes map[int]*rdShape // keyed by burst length nd

	detMu   sync.Mutex
	detFree []*detExec
}

// CompileFrontEndPlan builds the front-end plan for one radar shape,
// normalizing zero-valued cfg fields exactly as NewProcessor does. The call
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
		rdShapes: map[int]*rdShape{},
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

func (pl *FrontEndPlan) getRA() *raExec {
	pl.raMu.Lock()
	if k := len(pl.raFree); k > 0 {
		e := pl.raFree[k-1]
		pl.raFree[k-1] = nil
		pl.raFree = pl.raFree[:k-1]
		pl.raMu.Unlock()
		return e
	}
	pl.raMu.Unlock()
	return pl.newRAExec()
}

func (pl *FrontEndPlan) putRA(e *raExec) {
	pl.raMu.Lock()
	pl.raFree = append(pl.raFree, e)
	pl.raMu.Unlock()
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
// it computes, per angle, the same complex sum the scalar kernel did —
// Σ_k spectra[k][r]·steering[a][k], products and additions in the same
// k order — with the accumulator split into real/imaginary registers and
// the antenna sum unrolled for the common array sizes, so successive angle
// bins are independent instruction chains instead of one long dependent
// complex-add chain. Two facts make the restructure bit-safe: amd64
// performs no FMA contraction on float64 expressions, so the split-plane
// products round exactly like the complex-multiply lowering; and dropping
// the scalar kernel's 0+first-term seed can only flip the sign of a zero
// accumulator, which the final squaring maps to +0 either way.
func (e *raExec) beamSweep(r0, r1 int) {
	pl := e.pl
	bins := pl.cfg.AngleBins
	vector := useBeamAVX && bins >= 4 && pl.nAnt <= beamMaxAVXAnt
	for r := r0; r < r1; r++ {
		row := e.prof.Power[r*bins : (r+1)*bins : (r+1)*bins]
		if vector {
			e.beamRowAVX(row, r)
			continue
		}
		switch pl.nAnt {
		case 7:
			e.beamRow7(row, r)
		case 4:
			e.beamRow4(row, r)
		case 2:
			e.beamRow2(row, r)
		default:
			e.beamRowN(row, r)
		}
	}
}

// beamRowAVX runs the row kernel four angle bins at a time through the
// hand-written AVX sweep, with a scalar tail for the last len(row)%4 bins.
// Vectorizing across angle bins is bit-safe by construction: each lane
// performs exactly the scalar kernel's multiply/add sequence for its own
// angle (VMULPD/VADDPD/VSUBPD are lanewise IEEE-754 double ops, and amd64
// never contracts to FMA), so every lane rounds identically to the scalar
// path.
func (e *raExec) beamRowAVX(row []float64, r int) {
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
	beamSweepAVX(&row[0], n4, pl.nAnt, &s[0], &pl.steerReFlat[0], &pl.steerImFlat[0], pl.cfg.AngleBins)
	if n4 < len(row) {
		e.beamRowTail(row, r, n4)
	}
}

// beamRowTail computes angle bins [a0, len(row)) with the scalar expression
// the AVX lanes execute: antenna-0 seed, then ascending-k accumulation in
// split real/imaginary planes — the same order (and therefore the same bits)
// as the unrolled row kernels.
func (e *raExec) beamRowTail(row []float64, r, a0 int) {
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
		row[a] = re*re + im*im
	}
}

// beamRow7 is the row kernel for the paper's 7-element array — the shape
// every evaluation scene runs, so it gets the full unroll. See beamRow4 for
// the bounds-check and antenna-0 notes.
func (e *raExec) beamRow7(row []float64, r int) {
	pl := e.pl
	bins := len(row)
	s0 := e.spectra[0][r]
	s1 := e.spectra[1][r]
	s2 := e.spectra[2][r]
	s3 := e.spectra[3][r]
	s4 := e.spectra[4][r]
	s5 := e.spectra[5][r]
	s6 := e.spectra[6][r]
	s0r, s0i := real(s0), imag(s0)
	s1r, s1i := real(s1), imag(s1)
	s2r, s2i := real(s2), imag(s2)
	s3r, s3i := real(s3), imag(s3)
	s4r, s4i := real(s4), imag(s4)
	s5r, s5i := real(s5), imag(s5)
	s6r, s6i := real(s6), imag(s6)
	w1r, w1i := pl.steerRe[1][:bins], pl.steerIm[1][:bins]
	w2r, w2i := pl.steerRe[2][:bins], pl.steerIm[2][:bins]
	w3r, w3i := pl.steerRe[3][:bins], pl.steerIm[3][:bins]
	w4r, w4i := pl.steerRe[4][:bins], pl.steerIm[4][:bins]
	w5r, w5i := pl.steerRe[5][:bins], pl.steerIm[5][:bins]
	w6r, w6i := pl.steerRe[6][:bins], pl.steerIm[6][:bins]
	for a := 0; a < bins; a++ {
		re := s0r + (s1r*w1r[a] - s1i*w1i[a])
		im := s0i + (s1r*w1i[a] + s1i*w1r[a])
		re += s2r*w2r[a] - s2i*w2i[a]
		im += s2r*w2i[a] + s2i*w2r[a]
		re += s3r*w3r[a] - s3i*w3i[a]
		im += s3r*w3i[a] + s3i*w3r[a]
		re += s4r*w4r[a] - s4i*w4i[a]
		im += s4r*w4i[a] + s4i*w4r[a]
		re += s5r*w5r[a] - s5i*w5i[a]
		im += s5r*w5i[a] + s5i*w5r[a]
		re += s6r*w6r[a] - s6i*w6i[a]
		im += s6r*w6i[a] + s6i*w6r[a]
		row[a] = re*re + im*im
	}
}

// beamRow4 is the 4-antenna beamforming row kernel. Reslicing every table
// to the row's length lets the compiler drop all bounds checks from the
// angle loop, and antenna 0 — whose steering weight is exp(0) = 1 at every
// angle — seeds the accumulators directly: the multiply by one it skips can
// only change the sign of a zero, which the squaring at the end erases.
func (e *raExec) beamRow4(row []float64, r int) {
	pl := e.pl
	bins := len(row)
	s0 := e.spectra[0][r]
	s1 := e.spectra[1][r]
	s2 := e.spectra[2][r]
	s3 := e.spectra[3][r]
	s0r, s0i := real(s0), imag(s0)
	s1r, s1i := real(s1), imag(s1)
	s2r, s2i := real(s2), imag(s2)
	s3r, s3i := real(s3), imag(s3)
	w1r, w1i := pl.steerRe[1][:bins], pl.steerIm[1][:bins]
	w2r, w2i := pl.steerRe[2][:bins], pl.steerIm[2][:bins]
	w3r, w3i := pl.steerRe[3][:bins], pl.steerIm[3][:bins]
	for a := 0; a < bins; a++ {
		re := s0r + (s1r*w1r[a] - s1i*w1i[a])
		im := s0i + (s1r*w1i[a] + s1i*w1r[a])
		re += s2r*w2r[a] - s2i*w2i[a]
		im += s2r*w2i[a] + s2i*w2r[a]
		re += s3r*w3r[a] - s3i*w3i[a]
		im += s3r*w3i[a] + s3i*w3r[a]
		row[a] = re*re + im*im
	}
}

// beamRow2 is the 2-antenna row kernel, with the same antenna-0 seeding as
// beamRow4.
func (e *raExec) beamRow2(row []float64, r int) {
	pl := e.pl
	bins := len(row)
	s0 := e.spectra[0][r]
	s1 := e.spectra[1][r]
	s0r, s0i := real(s0), imag(s0)
	s1r, s1i := real(s1), imag(s1)
	w1r, w1i := pl.steerRe[1][:bins], pl.steerIm[1][:bins]
	for a := 0; a < bins; a++ {
		re := s0r + (s1r*w1r[a] - s1i*w1i[a])
		im := s0i + (s1r*w1i[a] + s1i*w1r[a])
		row[a] = re*re + im*im
	}
}

// beamRowN is the any-antenna-count fallback. It loops angle-outer with
// register accumulators — per angle the adds land in the same ascending-k
// order as ever, so the bits don't change, and there is no shared scratch
// for concurrently-swept rows of one raExec to race on.
func (e *raExec) beamRowN(row []float64, r int) {
	pl := e.pl
	for a := range row {
		var re, im float64
		for k := 0; k < pl.nAnt; k++ {
			s := e.spectra[k][r]
			sr, si := real(s), imag(s)
			wr := pl.steerRe[k][a]
			wi := pl.steerIm[k][a]
			re += sr*wr - si*wi
			im += sr*wi + si*wr
		}
		row[a] = re*re + im*im
	}
}

// RangeAngleInto computes the range–angle power profile of f into prof,
// reusing prof.Power's capacity when it suffices. The frame must have the
// shape the plan was compiled for. Output is bit-identical to the
// historical Processor kernel for any worker count and any prior contents
// of prof; after the executor free list is warm, a Workers: 1 call
// allocates nothing. Concurrent calls on one plan are safe and overlap.
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
	e := pl.getRA()
	e.frame, e.prof = f, prof

	bins := pl.cfg.AngleBins
	prof.Params = f.Params
	prof.Time = f.Time
	prof.RangeBins = pl.maxBin
	prof.AngleBins = bins
	prof.Power = growFloats(prof.Power, pl.maxBin*bins)
	// The beamforming sweep writes only rows [minBin, maxBin); zero the
	// skipped near-range rows so a reused Power matches a fresh one exactly.
	head := prof.Power[:pl.minBin*bins]
	for i := range head {
		head[i] = 0
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
	pl.putRA(e)
	return err
}

// rdShape is the per-burst-length slice of the plan: the slow-time window
// plus the executor free list for that length. Range–Doppler bursts change
// length while a sliding window fills, so the plan keeps one shape per nd.
type rdShape struct {
	nd   int
	dwin []float64 // slow-time Hann, length nd
	free []*rdExec
}

// rdExec is one range–Doppler execution context.
type rdExec struct {
	pl      *FrontEndPlan
	sh      *rdShape
	spectra [][]complex128 // one windowed range-FFT row per chirp
	cols    [][]complex128 // one slow-time column per fan-out batch
	fftFn   func(k int)
	colFn   func(b int)
	// Per-call state read by the closures; cleared on exit.
	chirps  []*fmcw.Frame
	antenna int
	m       *RangeDopplerMap
}

func (pl *FrontEndPlan) getRD(nd int) *rdExec {
	pl.rdMu.Lock()
	sh := pl.rdShapes[nd]
	if sh == nil {
		sh = &rdShape{nd: nd, dwin: dsp.Hann.Coefficients(nd)}
		pl.rdShapes[nd] = sh
		pl.rdMu.Unlock()
		// Warm the slow-time dsp plan outside the plan lock; size 8 (the
		// standard Doppler window) dispatches to the unrolled kernel.
		dsp.FFTInPlace(make([]complex128, nd))
		return pl.newRDExec(sh)
	}
	if k := len(sh.free); k > 0 {
		e := sh.free[k-1]
		sh.free[k-1] = nil
		sh.free = sh.free[:k-1]
		pl.rdMu.Unlock()
		return e
	}
	pl.rdMu.Unlock()
	return pl.newRDExec(sh)
}

func (pl *FrontEndPlan) putRD(e *rdExec) {
	pl.rdMu.Lock()
	e.sh.free = append(e.sh.free, e)
	pl.rdMu.Unlock()
}

func (pl *FrontEndPlan) newRDExec(sh *rdShape) *rdExec {
	e := &rdExec{pl: pl, sh: sh}
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
		dsp.WindowedFFTTo(e.spectra[k], e.chirps[k].Data[e.antenna], pl.win)
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
// reusing m.Power's capacity when it suffices. All chirps must have the
// shape the plan was compiled for; an out-of-range antenna falls back to 0.
// Output is bit-identical to the historical Processor kernel for any worker
// count; after the per-burst-length executor free list is warm, a
// Workers: 1 call allocates nothing (a sliding window still filling changes
// the burst length every frame, so the steady state begins once the window
// is full). Concurrent calls on one plan are safe and overlap.
//
// On cancellation m holds partially written garbage and must be discarded
// (or passed to the next call, which overwrites it).
//
//rfvet:allocfree
func (pl *FrontEndPlan) RangeDopplerInto(ctx context.Context, m *RangeDopplerMap, chirps []*fmcw.Frame, antenna int, pri float64) error {
	if m == nil {
		panic("radar: RangeDopplerInto with nil map")
	}
	if len(chirps) == 0 {
		*m = RangeDopplerMap{Power: m.Power[:0]}
		return nil
	}
	p := chirps[0].Params
	if p != pl.params {
		panic("radar: RangeDopplerInto on a chirp shape the plan was not compiled for")
	}
	if antenna < 0 || antenna >= p.NumAntennas {
		antenna = 0
	}
	nd := len(chirps)
	e := pl.getRD(nd)
	e.chirps, e.antenna, e.m = chirps, antenna, m

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
	e.chirps, e.m = nil, nil
	pl.putRD(e)
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

// detExec is one detection execution context: the range-column interpolation
// scratch and the reusable 2-D peak finder.
type detExec struct {
	col    []float64
	finder dsp.Peak2DFinder
}

func (pl *FrontEndPlan) getDet() *detExec {
	pl.detMu.Lock()
	if k := len(pl.detFree); k > 0 {
		e := pl.detFree[k-1]
		pl.detFree[k-1] = nil
		pl.detFree = pl.detFree[:k-1]
		pl.detMu.Unlock()
		return e
	}
	pl.detMu.Unlock()
	return &detExec{}
}

func (pl *FrontEndPlan) putDet(e *detExec) {
	pl.detMu.Lock()
	pl.detFree = append(pl.detFree, e)
	pl.detMu.Unlock()
}
