package scene

import (
	"context"
	"io"
	"math/rand"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
)

// ReturnSource is anything that contributes radar returns: the RF-Protect
// reflector (internal/reflector) implements this so it can be dropped into a
// Scene next to the humans it protects.
type ReturnSource interface {
	// ReturnsAt reports the reflections this source produces at time t as
	// seen by the given radar array.
	ReturnsAt(t float64, radar fmcw.Array) []fmcw.Return
}

// Scene is a complete simulated environment: a room, a radar, and everything
// that reflects.
type Scene struct {
	Room    Room
	Radar   fmcw.Array
	Params  fmcw.Params
	Humans  []*Human
	Clutter []Clutter
	Fans    []Fan
	Sources []ReturnSource // e.g. the RF-Protect reflector

	// Multipath enables first-order image reflections of moving scatterers
	// across the room's mirrors.
	Multipath bool
	// RefDistance is the distance at which a unit-RCS scatterer has unit
	// amplitude; amplitude falls off as (RefDistance/d)². Zero means 1 m.
	RefDistance float64

	// plan, when set with UseSynthPlan, is the compiled synthesis plan every
	// capture path runs through; nil means compile (or fetch the shared plan
	// for Params) on first use.
	plan *fmcw.SynthPlan
}

// UseSynthPlan routes every capture path through the given pre-compiled
// synthesis plan, which must be compiled for the scene's Params, instead of
// the shared fmcw.PlanSynth plan. Frames are bit-identical for any plan of
// the right shape — plans are stateless apart from their warmed executor
// free lists. It returns s for chaining.
func (s *Scene) UseSynthPlan(pl *fmcw.SynthPlan) *Scene {
	s.plan = pl
	return s
}

// synthPlan returns the scene's synthesis plan, fetching the process-wide
// shared plan for Params on first use (or after Params changed shape).
func (s *Scene) synthPlan() *fmcw.SynthPlan {
	if s.plan == nil || s.plan.Params() != s.Params {
		s.plan = fmcw.PlanSynth(s.Params)
	}
	return s.plan
}

// NewScene assembles a scene with the radar mounted at the middle of the
// bottom wall facing into the room, matching the paper's deployments
// (eavesdropper along a wall).
func NewScene(room Room, params fmcw.Params) *Scene {
	return &Scene{
		Room:   room,
		Params: params,
		Radar: fmcw.Array{
			Position:  geom.Point{X: room.Width / 2, Y: 0},
			AxisAngle: 0, // array along the wall (x axis)
			Facing:    1, // looking into the room (+y)
		},
		Multipath: true,
	}
}

func (s *Scene) refDist() float64 {
	if s.RefDistance > 0 {
		return s.RefDistance
	}
	return 1
}

// amplitudeAt applies the radar-equation 1/d² amplitude falloff.
func (s *Scene) amplitudeAt(rcs float64, p geom.Point) float64 {
	d := s.Radar.DistanceOf(p)
	r0 := s.refDist()
	if d < r0 {
		d = r0
	}
	return rcs * (r0 / d) * (r0 / d)
}

// movingReturn builds the direct return plus optional first-order multipath
// images for a moving scatterer at p.
func (s *Scene) movingReturn(p geom.Point, rcs, extraPhase float64, out []fmcw.Return) []fmcw.Return {
	out = append(out, s.Radar.ReturnFrom(p, s.amplitudeAt(rcs, p), 0, extraPhase))
	if s.Multipath {
		for _, m := range s.Room.Mirrors() {
			img := m.Reflect(p)
			amp := s.amplitudeAt(rcs, img) * m.Reflectivity
			if amp < 1e-6 {
				continue
			}
			out = append(out, s.Radar.ReturnFrom(img, amp, 0, extraPhase))
		}
	}
	return out
}

// ReturnsAt assembles every reflection in the scene at time t.
func (s *Scene) ReturnsAt(t float64) []fmcw.Return { return s.AppendReturnsAt(nil, t) }

// AppendReturnsAt appends every reflection in the scene at time t to dst and
// returns the extended slice — the scratch-reusing form of ReturnsAt, so a
// streaming consumer can feed the same backing array through every frame.
// The appended contents are identical to ReturnsAt's for any dst.
func (s *Scene) AppendReturnsAt(dst []fmcw.Return, t float64) []fmcw.Return {
	out := dst
	for _, h := range s.Humans {
		p := h.PositionAt(t)
		// Breathing shifts the reflecting surface radially: extra round-trip
		// path 2·δ(t), visible as carrier phase 4π·δ/λ.
		delta := h.Breathing.Displacement(t)
		extraPhase := 4 * 3.141592653589793 * delta / s.Params.Wavelength()
		out = s.movingReturn(p, h.RCS, extraPhase, out)
	}
	for _, f := range s.Fans {
		out = s.movingReturn(f.PositionAt(t), f.Amplitude, 0, out)
	}
	for _, c := range s.Clutter {
		out = append(out, s.Radar.ReturnFrom(c.Pos, c.Amplitude, 0, 0))
	}
	for _, src := range s.Sources {
		out = append(out, src.ReturnsAt(t, s.Radar)...)
	}
	return out
}

// FrameAtCtx synthesizes the radar frame captured at time t, adding the
// room's diffuse-multipath speckle (random weak companion reflections near
// every return) when rng is non-nil. Cancellation is threaded into the
// synthesis fan-out; it returns (nil, ctx.Err()) once ctx is done. The rng
// consumption order (speckle draws, then one noise base draw) is the one
// every capture path shares, so the frame is bit-identical to the stream's
// frame at the same instant and rng state.
func (s *Scene) FrameAtCtx(ctx context.Context, t float64, rng *rand.Rand) (*fmcw.Frame, error) {
	f, _, err := s.synthAt(ctx, s.synthPlan(), nil, nil, t, rng)
	return f, err
}

// synthAt is the one synthesize-at-t step behind FrameAtCtx and
// FrameStream.Next: it rebuilds the returns at t into the rets scratch
// (plus speckle when rng is non-nil), then synthesizes them through pl
// into a frame from pool — or a fresh frame when pool is nil. It returns
// the frame and the grown scratch; on cancellation a pooled frame goes
// back to the pool and the error is ctx.Err().
func (s *Scene) synthAt(ctx context.Context, pl *fmcw.SynthPlan, pool *fmcw.FramePool, rets []fmcw.Return, t float64, rng *rand.Rand) (*fmcw.Frame, []fmcw.Return, error) {
	if err := ctx.Err(); err != nil {
		return nil, rets, err
	}
	rets = s.AppendReturnsAt(rets[:0], t)
	if rng != nil && s.Room.Speckle > 0 {
		rets = s.appendSpeckle(rets, rng)
	}
	var f *fmcw.Frame
	if pool != nil {
		f = pool.Get(t)
	} else {
		f = fmcw.NewFrame(s.Params, t)
	}
	if err := pl.SynthesizeInto(ctx, f, rets, rng, 0); err != nil {
		if pool != nil {
			pool.Put(f) // partially written: zero and recycle
		}
		return nil, rets, err
	}
	return f, rets, nil
}

// appendSpeckle appends one weak companion per return: a diffuse bounce
// arriving slightly later and from a slightly different direction, with
// random phase. Rich-scattering rooms (office) perturb peak locations this
// way; it affects humans and RF-Protect ghosts identically, which is why
// §11.1 sees larger errors for both in the office.
//
// Companions append to the input slice itself, iterating only the prefix
// that existed on entry — the same companions from the same rng draws, in
// the same order, as the historical two-slice implementation, but without a
// per-frame allocation when the slice has capacity.
func (s *Scene) appendSpeckle(returns []fmcw.Return, rng *rand.Rand) []fmcw.Return {
	lvl := s.Room.Speckle
	binDelay := 2 * s.Params.RangeResolution() / fmcw.C
	n0 := len(returns)
	for i := 0; i < n0; i++ {
		r := returns[i]
		if r.Amplitude < 1e-4 {
			continue
		}
		c := r
		c.Amplitude = r.Amplitude * lvl * (0.5 + 0.5*rng.Float64())
		c.Delay += (rng.Float64() - 0.5) * 2 * binDelay
		// Angular spread grows with scattering richness.
		c.AoA += rng.NormFloat64() * 0.12 * lvl
		c.Phase += rng.Float64() * 2 * 3.141592653589793
		returns = append(returns, c)
	}
	return returns
}

// CaptureCtx synthesizes n consecutive frames starting at t0 at the
// params' frame rate. It is the batch wrapper over Stream: both paths
// synthesize the same frames in the same order from the same rng draws, so
// a drained stream is bit-identical to a capture. Once ctx is done it
// returns the frames synthesized so far plus ctx.Err().
func (s *Scene) CaptureCtx(ctx context.Context, t0 float64, n int, rng *rand.Rand) ([]*fmcw.Frame, error) {
	out := make([]*fmcw.Frame, 0, n)
	st := s.Stream(t0, n, rng)
	for {
		f, err := st.Next(ctx)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

// FrameStream emits a capture one frame at a time: the scene-side Source of
// the streaming pipeline (internal/pipeline). It holds no frame history, so
// a stream of any length runs in O(1) frame memory; with UsePool it also
// runs in O(1) frame *allocations*, synthesizing every frame into recycled
// pool storage.
type FrameStream struct {
	scene *Scene
	t0    float64
	dt    float64
	n     int
	i     int
	rng   *rand.Rand
	pool  *fmcw.FramePool
	plan  *fmcw.SynthPlan
	rets  []fmcw.Return // per-frame returns scratch, reused across Next calls
}

// Stream returns a FrameStream over the same n frames
// CaptureCtx(ctx, t0, n, rng) would synthesize: frame i is captured at
// t0 + i/FrameRate, and rng is consumed in frame order, so draining the
// stream consumes rng exactly as the batch capture does. n < 0 means an
// unbounded stream (frames forever, until the consumer stops). The stream synthesizes through the scene's
// synthesis plan as resolved at Stream time.
func (s *Scene) Stream(t0 float64, n int, rng *rand.Rand) *FrameStream {
	return &FrameStream{scene: s, t0: t0, dt: 1 / s.Params.FrameRate, n: n, rng: rng, plan: s.synthPlan()}
}

// UsePool makes the stream synthesize every frame into storage from the
// given pool (which must be configured with the scene's Params) instead of
// allocating a fresh frame per Next. Emitted frames are bit-identical to
// the unpooled stream's; ownership of each frame passes to the caller, who
// recycles it with pool.Put once done — the streaming pipeline does this
// automatically when wired with pipeline.UsePools. It returns st for
// chaining.
func (st *FrameStream) UsePool(pool *fmcw.FramePool) *FrameStream {
	st.pool = pool
	return st
}

// Next synthesizes and returns the next frame. It returns io.EOF once the
// stream is exhausted, or ctx.Err() once ctx is done.
func (st *FrameStream) Next(ctx context.Context) (*fmcw.Frame, error) {
	if st.n >= 0 && st.i >= st.n {
		return nil, io.EOF
	}
	f, rets, err := st.scene.synthAt(ctx, st.plan, st.pool, st.rets, st.t0+float64(st.i)*st.dt, st.rng)
	st.rets = rets
	if err != nil {
		return nil, err
	}
	st.i++
	return f, nil
}
