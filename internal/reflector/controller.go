package reflector

import (
	"fmt"
	"math"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
)

// GhostEntry is one control tick of a programmed ghost, in the tag's own
// terms: which antenna reflected and how much extra distance the switching
// frequency encoded. This is exactly the information the tag can disclose to
// a legitimate sensor (§11.3) — it contains no knowledge of the radar.
type GhostEntry struct {
	Antenna       int
	ExtraDistance float64
	PhaseShift    float64
}

// GhostRecord is the disclosure log of one ghost session.
type GhostRecord struct {
	Start   float64 // session start time in seconds
	Tick    float64 // control granularity in seconds
	Entries []GhostEntry
}

// End returns the session end time.
func (g GhostRecord) End() float64 {
	return g.Start + float64(len(g.Entries))*g.Tick
}

// ExpectedObservation maps the disclosure log to the ghost trajectory a
// radar with the given geometry would observe, assuming it knows the tag's
// antenna positions (the calibration a user shares with their own sensor).
// One point per control tick.
func (g GhostRecord) ExpectedObservation(cfg Config, radar fmcw.Array) []geom.Point {
	out := make([]geom.Point, len(g.Entries))
	for i, e := range g.Entries {
		p := cfg.AntennaPosition(e.Antenna)
		r := radar.DistanceOf(p) + e.ExtraDistance
		out[i] = radar.PointAt(r, radar.AoAOf(p))
	}
	return out
}

// AmplitudeMode selects how the tag scales its reflection power.
type AmplitudeMode int

const (
	// AmplitudeRaw uses the physical LNA gain and round-trip falloff as-is.
	AmplitudeRaw AmplitudeMode = iota
	// AmplitudeMatchHuman adjusts the variable-gain amplifier so the ghost's
	// received power equals that of a unit-RCS human standing at the spoofed
	// location — reproducing Fig. 10's power-matched profiles.
	AmplitudeMatchHuman
)

// Controller programs ghosts onto a Reflector.
type Controller struct {
	tag  *Reflector
	mode AmplitudeMode
	logs []GhostRecord
	hard Hardening
}

// NewController returns a controller for the tag with power matching on.
func NewController(tag *Reflector) *Controller {
	return &Controller{tag: tag, mode: AmplitudeMatchHuman}
}

// SetAmplitudeMode selects the power-control strategy.
func (c *Controller) SetAmplitudeMode(m AmplitudeMode) { c.mode = m }

// Records returns the disclosure logs of every programmed ghost.
func (c *Controller) Records() []GhostRecord {
	out := make([]GhostRecord, len(c.logs))
	copy(out, c.logs)
	return out
}

// ProgramLocal programs a ghost trajectory expressed in the tag's local
// frame (the cGAN output anchored near the tag), with no knowledge of the
// radar: the bearing about the panel selects the antenna, the radius sets
// the switching frequency. The observed trajectory is a translated/rotated/
// slightly scaled version of the request — the invariance §5.3 and §11.1
// measure modulo.
//
// traj points are relative to the panel origin; fs is the trajectory sample
// rate; start is the session start time.
func (c *Controller) ProgramLocal(traj geom.Trajectory, fs, start float64) (GhostRecord, error) {
	if len(traj) == 0 {
		return GhostRecord{}, fmt.Errorf("reflector: empty trajectory")
	}
	if fs <= 0 {
		return GhostRecord{}, fmt.Errorf("reflector: sample rate %v must be positive", fs)
	}
	cfg := c.tag.cfg
	k := cfg.NumAntennas
	entries := c.resample(traj, fs, func(p geom.Point) GhostEntry {
		pol := geom.ToPolar(p, geom.Point{})
		// Bearing relative to the panel axis, folded into [0, π].
		theta := math.Abs(geom.AngleDiff(pol.Theta, cfg.Axis))
		idx := int(math.Round(theta / math.Pi * float64(k-1)))
		if idx < 0 {
			idx = 0
		} else if idx >= k {
			idx = k - 1
		}
		return GhostEntry{Antenna: idx, ExtraDistance: math.Max(pol.R, 0)}
	})
	return c.commit(start, entries), nil
}

// ProgramForRadar programs a ghost trajectory in world coordinates against a
// radar whose geometry is known (the calibrated setup of the accuracy
// experiments, §9.3): for each point the controller selects the antenna
// whose radar ray passes closest to the point, then encodes the remaining
// range with the switching frequency. Points closer to the radar than the
// chosen antenna are clamped onto the antenna (the tag can only add delay,
// §5.1).
func (c *Controller) ProgramForRadar(traj geom.Trajectory, radar fmcw.Array, fs, start float64) (GhostRecord, error) {
	if len(traj) == 0 {
		return GhostRecord{}, fmt.Errorf("reflector: empty trajectory")
	}
	if fs <= 0 {
		return GhostRecord{}, fmt.Errorf("reflector: sample rate %v must be positive", fs)
	}
	cfg := c.tag.cfg
	// Each antenna's AoA and distance from the radar depend only on the
	// pose, never on the tick, so they are computed once per call.
	aoas := make([]float64, cfg.NumAntennas)
	dists := make([]float64, cfg.NumAntennas)
	for i := range aoas {
		pos := cfg.AntennaPosition(i)
		aoas[i], dists[i] = radar.AoAOf(pos), radar.DistanceOf(pos)
	}
	entries := c.resample(traj, fs, func(p geom.Point) GhostEntry {
		wantAoA := radar.AoAOf(p)
		best, bestErr := 0, math.Inf(1)
		for i, aoa := range aoas {
			if e := math.Abs(geom.AngleDiff(aoa, wantAoA)); e < bestErr {
				best, bestErr = i, e
			}
		}
		extra := radar.DistanceOf(p) - dists[best]
		if extra < 0 {
			extra = 0
		}
		return GhostEntry{Antenna: best, ExtraDistance: extra}
	})
	return c.commit(start, entries), nil
}

// ProgramBreathing programs a stationary breathing ghost: fixed antenna and
// switching frequency, with the phase shifter replaying the carrier-phase
// signature of chest motion with the given amplitude (meters) and rate (Hz)
// for the given duration (§11.4).
func (c *Controller) ProgramBreathing(antenna int, extraDistance, rate, amplitude, duration, start float64) (GhostRecord, error) {
	cfg := c.tag.cfg
	if antenna < 0 || antenna >= cfg.NumAntennas {
		return GhostRecord{}, fmt.Errorf("reflector: antenna %d out of range [0, %d)", antenna, cfg.NumAntennas)
	}
	if duration <= 0 {
		return GhostRecord{}, fmt.Errorf("reflector: duration %v must be positive", duration)
	}
	tick := cfg.syncGranularity()
	n := int(duration / tick)
	lambda := cfg.Wavelength
	if lambda <= 0 {
		lambda = fmcw.DefaultParams().Wavelength()
	}
	entries := make([]GhostEntry, n)
	for i := range entries {
		t := float64(i) * tick
		phase := 4 * math.Pi * amplitude * math.Sin(2*math.Pi*rate*t) / lambda
		entries[i] = GhostEntry{Antenna: antenna, ExtraDistance: extraDistance, PhaseShift: phase}
	}
	return c.commit(start, entries), nil
}

// resample converts a trajectory at fs samples/s into per-tick ghost entries
// via the supplied point mapper, interpolating between trajectory samples.
func (c *Controller) resample(traj geom.Trajectory, fs float64, mapper func(geom.Point) GhostEntry) []GhostEntry {
	tick := c.tag.cfg.syncGranularity()
	duration := float64(len(traj)-1) / fs
	n := int(duration/tick) + 1
	entries := make([]GhostEntry, n)
	for i := range entries {
		ft := float64(i) * tick * fs
		j := int(ft)
		var p geom.Point
		if j >= len(traj)-1 {
			p = traj[len(traj)-1]
		} else {
			p = geom.Lerp(traj[j], traj[j+1], ft-float64(j))
		}
		entries[i] = mapper(p)
	}
	return entries
}

// commit installs the entries as a live session on the tag and logs them.
func (c *Controller) commit(start float64, entries []GhostEntry) GhostRecord {
	cfg := c.tag.cfg
	tick := cfg.syncGranularity()
	states := make([]ControlState, len(entries))
	for i, e := range entries {
		// Note a real-hardware corner: a *stationary* phantom whose
		// f_switch is an exact integer multiple of the radar's frame rate
		// has identical beat phase in every frame and is erased by
		// background subtraction (see TestStationaryGhostAliasing).
		// Frequency dithering would fix that but injects modulator phase
		// noise that swamps the breathing signature, so the controller
		// keeps f_switch clean; moving phantoms vary f_switch naturally,
		// and breathing phantoms are sensed through raw phase, not frame
		// differencing.
		states[i] = ControlState{
			Antenna:       e.Antenna,
			SwitchFreq:    cfg.SwitchFrequency(e.ExtraDistance),
			PhaseShift:    e.PhaseShift,
			ExtraDistance: e.ExtraDistance,
		}
	}
	c.hardenStates(states, len(c.tag.sessions))
	c.tag.sessions = append(c.tag.sessions, &session{
		start:    start,
		tick:     tick,
		states:   states,
		suppress: c.hard.HarmonicSuppression,
	})
	rec := GhostRecord{Start: start, Tick: tick, Entries: entries}
	c.logs = append(c.logs, rec)
	c.tag.amplitudeMode = c.mode
	return rec
}
