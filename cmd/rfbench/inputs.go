package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rfprotect/internal/geom"
	"rfprotect/internal/parallel"
	"rfprotect/internal/service"
)

// Workload sizes. The frame rate is fmcw.DefaultParams' 20 frames/s, which
// every room of the benchmark uses.
const (
	frameRate = 20.0

	// roomsShortFrames is one rooms-short room's length.
	roomsShortFrames = 1500

	// ingestRooms rooms are fed from one pre-synthesized loop of ingestLoop
	// frames, room r starting ingestStagger·r frames into it.
	ingestRooms   = 4
	ingestLoop    = 256
	ingestStagger = 64
	// liveRate is ingest-live's offered load in frames/s over all rooms;
	// bulkBatch is ingest-bulk's frames per POST.
	liveRate  = 240.0
	bulkBatch = 16

	// senders is the number of load-generating goroutines, each with its
	// own keep-alive connection.
	senders = 2

	// The runs are fixed amounts of work, sized to take about -seconds on
	// a two-core machine at these rates (frames/s).
	roomLongRate   = 500.0
	roomsShortRate = 1000.0
	bulkRate       = 500.0
	// windowTimeout bounds how long a window may take to do its work.
	windowTimeout = 150 * time.Second

	walkSpeed = 1.0 // m/s, humans
	ghostWalk = 0.7 // m/s, programmed ghosts
)

// inputs is everything a run feeds the system, derived from -seed and the
// run length.
type inputs struct {
	// roomLong is room-long's room; its Frames is a cap the run never
	// reaches (the run closes the room once its work is done).
	roomLong service.RoomConfig
	// roomsShort[i] is the i-th room rooms-short opens.
	roomsShort []service.RoomConfig
	// loop is the scene the ingest frames are synthesized from.
	loop loopScene
}

// loopScene describes the ingest workloads' source scene: one human and one
// ghost in a home, ingestLoop frames long.
type loopScene struct {
	seed  int64
	human geom.Trajectory
	ghost geom.Trajectory
}

// newInputs derives the workload's inputs from the seed and the run length.
func newInputs(workload string, seed int64, seconds float64) inputs {
	var in inputs
	switch workload {
	case "room-long":
		frames := 2*int(roomLongRate*seconds) + 1000
		rng := rand.New(rand.NewSource(parallel.SplitSeed(seed, 0)))
		in.roomLong = syntheticRoom("room-long", "home", rng, frames, 1, 0)
	case "rooms-short":
		for i := 0; i < 2*roomsShortWaves(seconds); i++ {
			rng := rand.New(rand.NewSource(parallel.SplitSeed(seed, 100+i)))
			in.roomsShort = append(in.roomsShort,
				syntheticRoom(fmt.Sprintf("short-%d", i), "office", rng, roomsShortFrames, 2, 8))
		}
	default:
		rng := rand.New(rand.NewSource(parallel.SplitSeed(seed, 7)))
		w, _ := roomSize("home")
		// A 4 × 2.4 m loop walked once per capture loop at about 1 m/s, so
		// the capture wraps around without a jump.
		lap := area{geom.Point{X: w/2 - 2, Y: 2.5}, geom.Point{X: w/2 + 2, Y: 4.9}}
		in.loop = loopScene{
			seed:  rng.Int63(),
			human: lapOf(rng, squareRoute, lap, ingestLoop),
			ghost: lapOf(rng, ghostRoute, ghostArea(w), ingestLoop),
		}
	}
	return in
}

// roomsShortWaves is how many waves of two rooms a rooms-short run opens.
func roomsShortWaves(seconds float64) int {
	return max(1, int(math.Round(seconds*roomsShortRate/(2*roomsShortFrames))))
}

// syntheticRoom is one synthetic room: humans walking the room and one
// programmed ghost, all sampled at the frame rate for the room's length.
// The first human circles the room, a second one its middle.
func syntheticRoom(id, env string, rng *rand.Rand, frames, humans, doppler int) service.RoomConfig {
	w, h := roomSize(env)
	cfg := service.RoomConfig{ID: id, Room: env, Seed: rng.Int63(), Frames: frames, DopplerWindow: doppler}
	for _, r := range []route{outerRoute, innerRoute}[:humans] {
		cfg.Humans = append(cfg.Humans, service.TrajSpec{Points: walk(rng, r, humanArea(w, h), walkSpeed, frames+1)})
	}
	cfg.Ghosts = []service.TrajSpec{{Points: walk(rng, ghostRoute, ghostArea(w), ghostWalk, frames+1)}}
	return cfg
}

// roomSize is the floor plan of the named environment.
func roomSize(env string) (w, h float64) {
	r := envRoom(env)
	return r.Width, r.Height
}

// area is an axis-aligned rectangle trajectories stay inside.
type area struct{ lo, hi geom.Point }

// humanArea keeps walkers a metre off the side and back walls and 1.5 m in
// front of the radar, which sits mid-way along the y = 0 wall.
func humanArea(w, h float64) area {
	return area{geom.Point{X: 1, Y: 1.5}, geom.Point{X: w - 1, Y: h - 1}}
}

// ghostArea is the patch in front of the tag (deployed 0.5 m beside the
// radar) where the tag can place a ghost.
func ghostArea(w float64) area {
	cx := w / 2
	return area{geom.Point{X: cx - 1, Y: 2.5}, geom.Point{X: cx + 2, Y: 5}}
}

// route is a closed walk through waypoints given as fractions of an area,
// back to the first. Every seed walks the same routes, so the seed changes
// the details of a run — waypoints, starting point, noise — but not how
// often tracks cross, fragment or go out of view, which is what the cost
// of a long run depends on.
type route []geom.Point

var (
	outerRoute  = route{{X: 0.05, Y: 0.05}, {X: 0.95, Y: 0.05}, {X: 0.95, Y: 0.9}, {X: 0.5, Y: 1}, {X: 0.05, Y: 0.9}}
	innerRoute  = route{{X: 0.3, Y: 0.3}, {X: 0.3, Y: 0.7}, {X: 0.7, Y: 0.7}, {X: 0.7, Y: 0.3}}
	ghostRoute  = route{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.2}, {X: 0.8, Y: 0.9}, {X: 0.2, Y: 0.8}}
	squareRoute = route{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
)

// routeJitter is how far, in metres, the seed moves each waypoint.
const routeJitter = 0.25

// laidOut is a route placed in an area: its waypoints, closed, with the
// cumulative path length at each.
type laidOut struct {
	pts []geom.Point
	cum []float64
}

func (r route) layOut(rng *rand.Rand, a area) laidOut {
	var l laidOut
	for _, f := range r {
		p := geom.Point{
			X: a.lo.X + f.X*(a.hi.X-a.lo.X) + (2*rng.Float64()-1)*routeJitter,
			Y: a.lo.Y + f.Y*(a.hi.Y-a.lo.Y) + (2*rng.Float64()-1)*routeJitter,
		}
		l.pts = append(l.pts, p)
	}
	l.pts = append(l.pts, l.pts[0])
	l.cum = append(l.cum, 0)
	for i := 1; i < len(l.pts); i++ {
		l.cum = append(l.cum, l.cum[i-1]+l.pts[i-1].Dist(l.pts[i]))
	}
	return l
}

func (l laidOut) length() float64 { return l.cum[len(l.cum)-1] }

// at is the point s metres along the route, wrapping around.
func (l laidOut) at(s float64) geom.Point {
	s = math.Mod(s, l.length())
	i := 1
	for i < len(l.cum)-1 && l.cum[i] < s {
		i++
	}
	return geom.Lerp(l.pts[i-1], l.pts[i], (s-l.cum[i-1])/(l.cum[i]-l.cum[i-1]))
}

// walk samples route r in area a at speed m/s, one point per frame, n
// points from a seed-chosen starting point.
func walk(rng *rand.Rand, r route, a area, speed float64, n int) geom.Trajectory {
	l := r.layOut(rng, a)
	return l.sample(rng.Float64()*l.length(), speed/frameRate, n)
}

// lapOf samples exactly one lap of route r in area a over n frames.
func lapOf(rng *rand.Rand, r route, a area, n int) geom.Trajectory {
	l := r.layOut(rng, a)
	return l.sample(rng.Float64()*l.length(), l.length()/float64(n), n)
}

func (l laidOut) sample(s, step float64, n int) geom.Trajectory {
	out := make(geom.Trajectory, n)
	for k := range out {
		out[k] = l.at(s + float64(k)*step)
	}
	return out
}

// ingestRoomConfig is ingest room r: a home room with a Doppler window,
// blocking producers when its queue is full.
func ingestRoomConfig(r int) service.RoomConfig {
	return service.RoomConfig{ID: fmt.Sprintf("ingest-%d", r), Room: "home", DopplerWindow: 8}
}

// ingestTime is the capture time of an ingest room's k-th frame. The same
// float64 is formatted into the POST body and given to the mirror.
func ingestTime(k int) float64 { return float64(k) / frameRate }

// loopIndex is the loop frame an ingest room sends as its k-th frame.
func loopIndex(r, k int) int { return (ingestStagger*r + k) % ingestLoop }
