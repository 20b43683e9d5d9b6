package service

import (
	"errors"
	"fmt"
	"math"

	"rfprotect/internal/detect"
	"rfprotect/internal/geom"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// Sentinel errors mapped to HTTP statuses by the API layer.
var (
	// ErrDraining rejects work submitted after a drain began (503).
	ErrDraining = errors.New("service: draining")
	// ErrBacklogged sheds a frame whose room queue is full under the
	// "shed" policy (429).
	ErrBacklogged = errors.New("service: room queue full")
	// ErrRoomExists rejects a duplicate room ID (409).
	ErrRoomExists = errors.New("service: room already exists")
	// ErrNoRoom is returned for an unknown room ID (404).
	ErrNoRoom = errors.New("service: no such room")
	// ErrNotIngest rejects frame pushes to a synthetic room (409).
	ErrNotIngest = errors.New("service: room is not in ingest mode")
	// ErrBusy rejects an operation that would race the room's running
	// capture, e.g. programming a ghost on a running synthetic room (409).
	ErrBusy = errors.New("service: room is busy; retry once it finishes")
	// ErrFrameShape rejects a nil frame or one whose antenna or sample
	// count differs from the room's (400).
	ErrFrameShape = errors.New("service: frame shape does not match the room's")
)

// RoomConfig is the create-room request body: one tenant session to host.
// The zero value of every optional field selects the standard evaluation
// setup, mirroring core.SessionConfig.
type RoomConfig struct {
	// ID names the room; empty means the manager assigns "room-<n>".
	ID string `json:"id,omitempty"`
	// Room selects the environment: "home" (default) or "office".
	Room string `json:"room,omitempty"`
	// Seed drives all randomness in the room's capture. Two rooms with the
	// same configuration and seed produce bit-identical output.
	Seed int64 `json:"seed,omitempty"`
	// Frames > 0 runs a synthetic source of that many frames (the room
	// synthesizes its own capture and finishes). Frames == 0 selects
	// ingest mode: the room processes frames POSTed to /frames until
	// closed or drained.
	Frames int `json:"frames,omitempty"`
	// FrameRate, for synthetic rooms, paces the source at that many frames
	// per second of wall time (a live capture); 0 synthesizes as fast as
	// the pipeline drains.
	FrameRate float64 `json:"frame_rate,omitempty"`
	// QueueDepth bounds the ingest queue (default 64, ingest mode only).
	QueueDepth int `json:"queue_depth,omitempty"`
	// Shed selects the full-queue policy for ingest pushes: false (the
	// default) blocks the producer until space frees — backpressure —
	// while true drops the frame immediately with ErrBacklogged (429) —
	// load-shedding.
	Shed bool `json:"shed,omitempty"`
	// NoMultipath disables the scene's first-order wall multipath.
	NoMultipath bool `json:"no_multipath,omitempty"`
	// DopplerWindow > 0 inserts a sliding-window range–Doppler stage of
	// that window length and attaches per-track radial velocities.
	DopplerWindow int `json:"doppler_window,omitempty"`
	// Humans walk the room: each trajectory is sampled at Rate points/s.
	Humans []TrajSpec `json:"humans,omitempty"`
	// Ghosts are programmed on the room's tag (calibrated against the
	// room's radar) before the capture starts.
	Ghosts []TrajSpec `json:"ghosts,omitempty"`
}

// TrajSpec is a trajectory on the wire: world-coordinate points sampled
// uniformly at Rate points per second, starting at Start seconds.
type TrajSpec struct {
	Points []geom.Point `json:"points"`
	// Rate is the trajectory sample rate in points/s; 0 means the room's
	// radar frame rate.
	Rate float64 `json:"rate,omitempty"`
	// Start offsets the trajectory (ghost program) start time in seconds.
	Start float64 `json:"start,omitempty"`
}

func (ts TrajSpec) trajectory() geom.Trajectory {
	tr := make(geom.Trajectory, len(ts.Points))
	copy(tr, ts.Points)
	return tr
}

// check reports the first problem with the spec; what names it in the
// error.
func (ts TrajSpec) check(what string) error {
	if len(ts.Points) < 2 {
		return fmt.Errorf("service: %s needs >= 2 trajectory points", what)
	}
	if ts.Rate < 0 {
		return fmt.Errorf("service: %s rate %v must be >= 0", what, ts.Rate)
	}
	return nil
}

// rate is the spec's sample rate, frameRate when unset.
func (ts TrajSpec) rate(frameRate float64) float64 {
	if ts.Rate == 0 {
		return frameRate
	}
	return ts.Rate
}

// checkGhostTicks reports an error when programming specs as ghosts on a
// tag that already holds held control ticks would take it past
// maxGhostTicks. Each spec's count is the one reflector.Controller
// allocates, ⌊(points−1)/rate/tick⌋ + 1, taken in floating point so that
// no rate can overflow it; nothing is allocated before the check passes.
func checkGhostTicks(held int, frameRate, tick float64, specs ...TrajSpec) error {
	total := float64(held)
	for _, ts := range specs {
		total += math.Floor(float64(len(ts.Points)-1)/ts.rate(frameRate)/tick) + 1
	}
	if total > maxGhostTicks {
		return fmt.Errorf("service: ghost programs would hold %.0f control ticks, over the room's cap of %d", total, maxGhostTicks)
	}
	return nil
}

// roomByName maps the wire name to a scene room.
func roomByName(name string) (scene.Room, error) {
	switch name {
	case "", "home":
		return scene.HomeRoom(), nil
	case "office":
		return scene.OfficeRoom(), nil
	default:
		return scene.Room{}, fmt.Errorf("service: unknown room environment %q (want home or office)", name)
	}
}

// Caps on the sizes a room allocates up front. Without them one request
// asking for billions of queue slots, Doppler chirps or ghost control ticks
// would stop the whole daemon with an unrecoverable out-of-memory fatal
// error. The tag controller allocates about 64 B per control tick, so
// maxGhostTicks, the total over all of a room's ghost programs, is about
// 64 MB: 2.9 h of tag time at the default 10 ms tick.
const (
	maxQueueDepth    = 1 << 20
	maxDopplerWindow = 256
	maxGhostTicks    = 1 << 20
)

// validate normalizes a RoomConfig and reports the first problem.
func (c *RoomConfig) validate() error {
	if _, err := roomByName(c.Room); err != nil {
		return err
	}
	if c.Frames < 0 {
		return fmt.Errorf("service: frames %d must be >= 0", c.Frames)
	}
	if c.FrameRate < 0 {
		return fmt.Errorf("service: frame_rate %v must be >= 0", c.FrameRate)
	}
	if c.QueueDepth < 0 || c.QueueDepth > maxQueueDepth {
		return fmt.Errorf("service: queue_depth %d must be in [0, %d]", c.QueueDepth, maxQueueDepth)
	}
	if c.DopplerWindow < 0 || c.DopplerWindow > maxDopplerWindow {
		return fmt.Errorf("service: doppler_window %d must be in [0, %d]", c.DopplerWindow, maxDopplerWindow)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	for i, h := range c.Humans {
		if err := h.check(fmt.Sprintf("humans[%d]", i)); err != nil {
			return err
		}
	}
	for i, g := range c.Ghosts {
		if err := g.check(fmt.Sprintf("ghosts[%d]", i)); err != nil {
			return err
		}
	}
	return nil
}

// Event is one NDJSON line of a room's output stream: the tracker state
// after one frame completed every stage.
type Event struct {
	Room  string  `json:"room"`
	Frame int     `json:"frame"`
	Time  float64 `json:"time"`
	// Detections holds this frame's extracted peaks (omitted for frames
	// before the background history is seeded).
	Detections []DetectionSpec `json:"detections,omitempty"`
	// Tracks holds, ordered by ID, the latest point of every confirmed track
	// that is still live, plus one last record (Retired set, final verdict)
	// for each track that retired on this frame. Retired tracks do not
	// appear in later events. The final event alone carries the full set:
	// every confirmed track of the room's life, retired and live.
	Tracks []TrackSpec `json:"tracks,omitempty"`
	// Final marks the room's last event: the pipeline has finished
	// (completed, drained, or failed) and the stream will close.
	Final bool `json:"final,omitempty"`
	// Error carries the failure on a final event of a failed room.
	Error string `json:"error,omitempty"`
}

// DetectionSpec is a radar.Detection on the wire.
type DetectionSpec struct {
	Range float64 `json:"range"`
	AoA   float64 `json:"aoa"`
	Power float64 `json:"power"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
}

// TrackSpec is the wire snapshot of one track: its latest point, the
// Doppler radial velocity when a Doppler stage is attached, and the live
// spoof-suspicion score from the adversary suite.
type TrackSpec struct {
	ID             int     `json:"id"`
	Confirmed      bool    `json:"confirmed"`
	Points         int     `json:"points"`
	Time           float64 `json:"time"`
	X              float64 `json:"x"`
	Y              float64 `json:"y"`
	RadialVelocity float64 `json:"radial_velocity,omitempty"`
	HasVelocity    bool    `json:"has_velocity,omitempty"`
	// Suspicion is the combined spoof score in threshold units: >= 1 means
	// some detector crossed its default threshold and the track is flagged.
	Suspicion float64 `json:"suspicion,omitempty"`
	Suspect   bool    `json:"suspect,omitempty"`
	// Retired marks a track the tracker has ended: its point and verdict
	// are final.
	Retired bool `json:"retired,omitempty"`
}

// trackSpec snapshots a track's latest point.
func trackSpec(tr *radar.Track, sc detect.TrackScore) TrackSpec {
	ts := TrackSpec{
		ID:             tr.ID,
		Confirmed:      tr.Confirmed,
		Points:         len(tr.Points),
		RadialVelocity: tr.RadialVelocity,
		HasVelocity:    tr.HasVelocity,
		Suspicion:      sc.Suspicion,
		Suspect:        sc.Flagged(),
		Retired:        tr.Retired(),
	}
	if n := len(tr.Points); n > 0 {
		ts.Time = tr.Points[n-1].Time
		ts.X = tr.Points[n-1].Pos.X
		ts.Y = tr.Points[n-1].Pos.Y
	}
	return ts
}

// TrackDump is the full-resolution track export of GET /rooms/{id}/tracks.
type TrackDump struct {
	ID             int     `json:"id"`
	Confirmed      bool    `json:"confirmed"`
	RadialVelocity float64 `json:"radial_velocity,omitempty"`
	HasVelocity    bool    `json:"has_velocity,omitempty"`
	// The spoof-suspicion breakdown: the raw switching-harmonic and
	// kinematic-consistency scores, the combined suspicion in threshold
	// units, the number of range–Doppler frames that contributed harmonic
	// evidence, and the flag verdict at the default thresholds.
	SpoofHarmonic  float64      `json:"spoof_harmonic,omitempty"`
	SpoofKinematic float64      `json:"spoof_kinematic,omitempty"`
	Suspicion      float64      `json:"suspicion,omitempty"`
	ScoredFrames   int          `json:"scored_frames,omitempty"`
	Suspect        bool         `json:"suspect,omitempty"`
	Points         []TimedPoint `json:"points"`
}

// TimedPoint is one tracked position sample.
type TimedPoint struct {
	Time float64 `json:"time"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// trackDump exports a track at full resolution.
func trackDump(tr *radar.Track, sc detect.TrackScore) TrackDump {
	d := TrackDump{
		ID:             tr.ID,
		Confirmed:      tr.Confirmed,
		RadialVelocity: tr.RadialVelocity,
		HasVelocity:    tr.HasVelocity,
		SpoofHarmonic:  sc.Harmonic,
		SpoofKinematic: sc.Kinematic,
		Suspicion:      sc.Suspicion,
		ScoredFrames:   sc.Frames,
		Suspect:        sc.Flagged(),
		Points:         make([]TimedPoint, len(tr.Points)),
	}
	for i, p := range tr.Points {
		d.Points[i] = TimedPoint{Time: p.Time, X: p.Pos.X, Y: p.Pos.Y}
	}
	return d
}

// RoomStatus is the status document of GET /rooms/{id} and the per-room
// rows of GET /rooms.
type RoomStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"` // running | draining | done | failed
	Mode   string `json:"mode"`  // synthetic | ingest
	Shard  int    `json:"shard"`
	Frames int    `json:"frames"` // frames fully processed
	// QueueDepth is the current ingest backlog (ingest rooms).
	QueueDepth int `json:"queue_depth"`
	// Dropped counts frames shed by the full-queue policy.
	Dropped int64 `json:"dropped,omitempty"`
	Tracks  int   `json:"tracks"`
	// Suspects counts tracks flagged by the spoof-detection suite at the
	// default thresholds.
	Suspects int    `json:"suspect_tracks"`
	Error    string `json:"error,omitempty"`
}

// GhostStatus is one disclosure record on the wire.
type GhostStatus struct {
	Index   int     `json:"index"`
	Start   float64 `json:"start"`
	Tick    float64 `json:"tick"`
	Entries int     `json:"entries"`
}
