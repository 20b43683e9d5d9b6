package fmcw

import (
	"context"
	"math"
	"math/rand"

	"rfprotect/internal/parallel"
)

// Return is one reflection arriving at the radar during a chirp. The channel
// model (internal/scene and internal/reflector) reduces every physical
// effect — walls, humans, switching reflectors — to a list of Returns.
type Return struct {
	Delay     float64 // round-trip propagation delay in seconds
	Amplitude float64 // linear amplitude at the receiver
	AoA       float64 // angle of arrival, radians in [0, π] from the array axis
	FreqShift float64 // extra beat-frequency offset in Hz (reflector switching)
	Phase     float64 // extra carrier phase in radians (phase shifter, micro-motion)
}

// Frame is the dechirped output of one chirp across all array elements:
// Data[k][i] is IF sample i on antenna k.
type Frame struct {
	Params Params
	Time   float64 // capture time in seconds (frame timestamp)
	Data   [][]complex128
}

// NewFrame allocates a zeroed frame for the given parameters. Rows are cut
// from one backing array with three-index slices, so each row's capacity is
// exactly its length: an append to Data[k] copies out instead of silently
// overwriting Data[k+1]'s samples.
func NewFrame(p Params, at float64) *Frame {
	n := p.SamplesPerChirp()
	data := make([][]complex128, p.NumAntennas)
	backing := make([]complex128, p.NumAntennas*n)
	for k := range data {
		data[k], backing = backing[:n:n], backing[n:]
	}
	return &Frame{Params: p, Time: at, Data: data}
}

// Reset zeroes every sample, leaving Params and Time untouched.
func (f *Frame) Reset() {
	for _, row := range f.Data {
		for i := range row {
			row[i] = 0
		}
	}
}

// SameShape reports whether g has the same antenna count and per-row sample
// count as f — the compatibility check for in-place frame operations and
// pool membership.
func (f *Frame) SameShape(g *Frame) bool {
	if len(f.Data) != len(g.Data) {
		return false
	}
	for k := range f.Data {
		if len(f.Data[k]) != len(g.Data[k]) {
			return false
		}
	}
	return true
}

// CopyFrom overwrites f with g's parameters, timestamp, and samples. It
// panics if the shapes differ; it never aliases g's storage.
func (f *Frame) CopyFrom(g *Frame) {
	if !f.SameShape(g) {
		panic("fmcw: CopyFrom with mismatched frame shapes")
	}
	f.Params = g.Params
	f.Time = g.Time
	for k := range f.Data {
		copy(f.Data[k], g.Data[k])
	}
}

// SynthesizeLegacyInto is the pre-plan synthesis kernel: the serial
// per-(return × antenna) phasor recurrence, retained as the ULP reference
// for the planned path (tests pin the planned samples to it within a
// relative tolerance) and as the baseline for the synth_plan speedup gate
// in cmd/bench. Same contract as SynthPlan.SynthesizeInto — same noise
// draws, same worker-count bit-identity — but the sample bits differ from
// the planned kernel's at the ULP level. New callers want the plan.
func SynthesizeLegacyInto(ctx context.Context, dst *Frame, returns []Return, rng *rand.Rand, workers int) error {
	p := dst.Params
	noisy := rng != nil && p.NoiseStd > 0
	var base int64
	if noisy {
		base = rng.Int63()
	}
	j, ok := synthJobs.Get()
	if !ok {
		j = new(synthJob)
		j.fn = j.antenna
	}
	j.dst, j.returns, j.noisy, j.base = dst, returns, noisy, base
	err := parallel.ForEachCtx(ctx, p.NumAntennas, workers, j.fn)
	j.dst, j.returns = nil, nil // a parked job pins nothing
	synthJobs.Put(j)
	return err
}

// synthJob carries one SynthesizeLegacyInto fan-out's state to the workers
// through fn, a method value bound once when the job is first built and
// recycled with it, so steady-state synthesis creates no closure: an
// inline func literal capturing (dst, returns, noisy, base) would escape
// to the heap on every call.
type synthJob struct {
	dst     *Frame
	returns []Return
	noisy   bool
	base    int64
	fn      func(int)
}

// antenna synthesizes antenna k's row; it is the per-index unit handed to
// parallel.ForEachCtx and touches only row k plus its own pooled rng.
func (j *synthJob) antenna(k int) {
	j.dst.addReturnsAntenna(k, j.returns)
	if j.noisy {
		r := getNoiseRng()
		r.Seed(parallel.SplitSeed(j.base, k))
		j.dst.addNoiseRow(k, r)
		noiseRngs.Put(r)
	}
}

// synthJobs recycles jobs, and with each the method value bound to it.
var synthJobs parallel.FreeList[*synthJob]

// noiseRngs recycles the per-antenna noise generators so steady-state
// synthesis stops allocating a rand.Rand (and its ~5 KiB source state) per
// antenna per frame. Each wraps a noiseSource, math/rand's v1 source with
// an O(1)-per-word Seed: reseeding a recycled generator with Seed(s)
// reproduces exactly the state rand.New(rand.NewSource(s)) would have, so
// the noise bits are those of the stdlib source; the stream still depends
// only on (base, antenna). Both synthesis kernels draw from here, so the
// synth_plan gate compares them on the same generator.
var noiseRngs parallel.FreeList[*rand.Rand]

func getNoiseRng() *rand.Rand {
	r, ok := noiseRngs.Get()
	if !ok {
		r = rand.New(new(noiseSource))
	}
	return r
}

// addReturnsAntenna accumulates every return into antenna k's row. It is
// the per-worker unit of SynthesizeLegacyInto and touches no state outside
// Data[k]; returns are added in slice order so the floating-point
// accumulation order per sample is fixed.
func (f *Frame) addReturnsAntenna(k int, returns []Return) {
	p := f.Params
	n := p.SamplesPerChirp()
	sl := p.Slope()
	lambda := p.Wavelength()
	d := p.Spacing()
	dt := 1 / p.SampleRate
	row := f.Data[k]
	for _, r := range returns {
		if r.Amplitude == 0 {
			continue
		}
		beat := sl*r.Delay + r.FreqShift
		// A frequency-shifting modulator (the RF-Protect switch) free-runs
		// across chirps, so its tone's phase at this chirp's start depends
		// on absolute capture time — this is what gives the shifted
		// reflection a Doppler signature in chirp-coherent processing.
		carrier := 2*math.Pi*p.CenterFreq*r.Delay + r.Phase + 2*math.Pi*r.FreqShift*f.Time
		// Per-sample rotation for this return.
		step := 2 * math.Pi * beat * dt
		stepC := complex(math.Cos(step), math.Sin(step))
		steer := -2 * math.Pi * float64(k) * d * math.Cos(r.AoA) / lambda
		ph0 := carrier + steer
		cur := complex(r.Amplitude*math.Cos(ph0), r.Amplitude*math.Sin(ph0))
		for i := 0; i < n; i++ {
			row[i] += cur
			cur *= stepC
		}
	}
}

// addNoiseRow adds noise to antenna k's row only, from the given stream.
func (f *Frame) addNoiseRow(k int, rng *rand.Rand) {
	std := f.Params.NoiseStd
	row := f.Data[k]
	for i := range row {
		row[i] += complex(rng.NormFloat64()*std, rng.NormFloat64()*std)
	}
}

// Differencer is the streaming form of successive-frame background
// subtraction (§3): feed it frames one at a time and it emits cur - prev,
// holding exactly one frame of history. The zero value is ready to use.
//
// The history is the differencer's own copy, never a retained caller
// frame: Step reads the input only for the duration of the call, so a
// pooled source may recycle or overwrite the frame as soon as its item has
// finished the stage chain. With UsePool, the emitted difference frames
// come from (and their history scratch is returned to) a FramePool, making
// the steady state allocation-free; ownership of each emitted frame passes
// to the caller, who returns it to the same pool when done (in the
// streaming pipeline, the pipeline itself recycles it when the item
// completes — see DESIGN.md "Buffer ownership & pooling").
type Differencer struct {
	prev *Frame
	pool *FramePool
}

// UsePool makes the differencer draw its output (and history) frames from
// the given pool. Call it before the first Step.
func (d *Differencer) UsePool(p *FramePool) { d.pool = p }

func (d *Differencer) getFrame(p Params, at float64) *Frame {
	if d.pool != nil {
		return d.pool.Get(at)
	}
	return NewFrame(p, at)
}

// Step consumes the next frame and returns its background-subtracted
// difference against the previous one. The first frame only seeds the
// history: Step returns (nil, false) for it, matching the batch pipeline
// where frame 0 contributes no detection set. The returned frame is owned
// by the caller; in pooled mode it must eventually go back to the pool.
func (d *Differencer) Step(f *Frame) (*Frame, bool) {
	if d.prev == nil {
		d.prev = d.getFrame(f.Params, f.Time)
		d.prev.CopyFrom(f)
		return nil, false
	}
	if !d.prev.SameShape(f) {
		panic("fmcw: Differencer.Step with mismatched frame shapes")
	}
	out := d.getFrame(f.Params, f.Time)
	out.Params, out.Time = f.Params, f.Time
	// One fused pass: emit f - prev and update the history to f, touching
	// each row once. The arithmetic matches Sub exactly, so pooled and
	// non-pooled runs are bit-identical.
	for k := range f.Data {
		fr, pr, or := f.Data[k], d.prev.Data[k], out.Data[k]
		for i := range fr {
			or[i] = fr[i] - pr[i]
			pr[i] = fr[i]
		}
	}
	d.prev.Time = f.Time
	return out, true
}

// Reset drops the held history so the next Step seeds it again, returning
// the history scratch to the pool when one is configured.
func (d *Differencer) Reset() {
	if d.pool != nil && d.prev != nil {
		d.pool.Put(d.prev)
	}
	d.prev = nil
}

// Sub returns f - g sample-wise as a new frame: the successive-frame
// background subtraction primitive of §3 ("Addressing Static Reflectors").
// It is the allocating wrapper over SubInto.
func (f *Frame) Sub(g *Frame) *Frame {
	out := NewFrame(f.Params, f.Time)
	f.SubInto(out, g)
	return out
}

// SubInto writes f - g sample-wise into dst, stamping it with f's Params
// and Time — the destination-passing form of Sub for callers recycling
// difference frames through a FramePool. It panics if the frames have
// different shapes. dst may alias f or g.
//
//rfvet:allocfree
func (f *Frame) SubInto(dst, g *Frame) {
	if len(f.Data) != len(g.Data) || len(f.Data) != len(dst.Data) {
		panic("fmcw: SubInto with mismatched antenna counts")
	}
	dst.Params, dst.Time = f.Params, f.Time
	for k := range f.Data {
		if len(f.Data[k]) != len(g.Data[k]) || len(f.Data[k]) != len(dst.Data[k]) {
			panic("fmcw: SubInto with mismatched sample counts")
		}
		fr, gr, dr := f.Data[k], g.Data[k], dst.Data[k]
		for i := range fr {
			dr[i] = fr[i] - gr[i]
		}
	}
}
