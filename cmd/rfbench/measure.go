package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"rfprotect/internal/geom"
	"rfprotect/internal/service"
)

// outcome is what one pass over a workload measured and checked.
type outcome struct {
	// attempted counts the frames the window offered the system; failed
	// those that got no result (refused, no event, or in a failed room).
	attempted, failed int
	// frames is the number the rooms completed inside the window.
	frames    int
	cpu       time.Duration
	samples   []sample
	heapLive  int64     // bytes live at the window's end beyond those before set-up
	setups    []float64 // seconds, one per set-up
	latencyMs []float64
	latencyAt []int64  // clock time each latency sample belongs to
	problems  []string // failed output checks

	humanHits, humanFrames int
	ghostHits, ghostFrames int

	// The service layer as the harness saw it.
	postMs, acceptMs, sendLagMs []float64
	ingestBytes                 int64
	late                        int
	eventBytes, eventLines      int64
	queueMax                    int
	rejected                    int
	eventsDropped               int

	// The rooms, kept for the traced pass's mirrors.
	synth  []*synthRoom
	ingest []*ingestRoom
	loop   loopFrames
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// progress counts the frames whose events the streams have read, and takes
// a sample of the counters each time the count crosses one of the window's
// slice ends. Slices are fixed amounts of work, not of time: a slow stretch
// of the machine stretches a slice instead of changing which frames — and
// so which room ages — it covers.
type progress struct {
	clock   *clock
	mu      sync.Mutex
	n       int64
	bounds  []int64 // slice ends not yet reached, ascending
	samples []sample
	done    chan struct{} // closed when the last slice ends
	allocs  []metrics.Sample
}

func newProgress(c *clock) *progress {
	return &progress{clock: c, done: make(chan struct{}), allocs: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

// add counts k more frames.
func (p *progress) add(k int64) {
	p.mu.Lock()
	p.n += k
	for len(p.bounds) > 0 && p.n >= p.bounds[0] {
		p.bounds = p.bounds[1:]
		p.sampleLocked()
		if len(p.bounds) == 0 {
			close(p.done)
		}
	}
	p.mu.Unlock()
}

func (p *progress) count() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

func (p *progress) sampleLocked() {
	metrics.Read(p.allocs)
	p.samples = append(p.samples, sample{at: p.clock.now(), frames: p.n, cpu: cpuTime(), allocs: p.allocs[0].Value.Uint64()})
}

// sample is the counters at one instant: clock time, frames completed,
// process CPU time, heap allocations.
type sample struct {
	at     int64
	frames int64
	cpu    time.Duration
	allocs uint64
}

// evenBounds splits total frames after from into n equal slices.
func evenBounds(from, total int64, n int) []int64 {
	b := make([]int64, n)
	for i := range b {
		b[i] = from + total*int64(i+1)/int64(n)
	}
	return b
}

// sliceCount is how many slices a window of the given length gets: about
// one a second, at least three.
func sliceCount(seconds float64) int { return max(3, int(math.Round(seconds))) }

// window is the measured interval of a pass.
type window struct {
	cpu time.Duration
	p   *progress
}

// openWindow opens the window and arms p's slice ends.
func openWindow(p *progress, bounds []int64) window {
	runtime.GC()
	w := window{cpu: cpuTime(), p: p}
	p.mu.Lock()
	p.samples = make([]sample, 0, len(bounds)+1)
	p.bounds = bounds
	p.sampleLocked()
	p.mu.Unlock()
	return w
}

// wait waits for the window's last slice to end.
func (w window) wait(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-w.p.done:
		return nil
	case <-t.C:
		return fmt.Errorf("the window's work did not complete within %s (%d frames done)", timeout, w.p.count())
	}
}

// close records the window's CPU time and its slices in o.
func (w window) close(o *outcome) {
	o.cpu = cpuTime() - w.cpu
	w.p.mu.Lock()
	o.samples = append([]sample(nil), w.p.samples...)
	w.p.mu.Unlock()
}

// perSlice applies f to each slice's counter deltas.
func (o *outcome) perSlice(f func(frames float64, d time.Duration, cpu time.Duration, allocs float64) float64) []float64 {
	var out []float64
	for i := 1; i < len(o.samples); i++ {
		a, b := o.samples[i-1], o.samples[i]
		out = append(out, f(float64(b.frames-a.frames), time.Duration(b.at-a.at), b.cpu-a.cpu, float64(b.allocs-a.allocs)))
	}
	return out
}

// sliceLatency is the median latency of each slice, by when each latency
// sample's frame was due (ingest) or read (synthetic rooms).
func (o *outcome) sliceLatency() []float64 {
	var out []float64
	for i := 1; i < len(o.samples); i++ {
		var in []float64
		for j, at := range o.latencyAt {
			if at >= o.samples[i-1].at && at < o.samples[i].at {
				in = append(in, o.latencyMs[j])
			}
		}
		if len(in) == 0 {
			out = append(out, math.NaN())
		} else {
			out = append(out, quantile(in, 0.5))
		}
	}
	return out
}

// trendMedian is a robust summary of per-slice values: their median once
// their Theil–Sen trend (the median slope over all pairs) is removed, each
// value moved to the middle of the window along it. Removing the trend
// keeps a workload whose cost grows with room age from turning the order of
// its slices into noise. Over 80 runs on a noisy two-vCPU VM the median
// repeated as well as or better than low quantiles of costs (high ones of
// rates) and best-of-N: the machine's speed drifts over minutes, which no
// choice of slices within one run avoids. NaN slices are skipped.
func trendMedian(v []float64) float64 {
	var slopes []float64
	for i := range v {
		for j := i + 1; j < len(v); j++ {
			if !math.IsNaN(v[i]) && !math.IsNaN(v[j]) {
				slopes = append(slopes, (v[j]-v[i])/float64(j-i))
			}
		}
	}
	slope := quantile(slopes, 0.5)
	mid := float64(len(v)-1) / 2
	var centred []float64
	for i, x := range v {
		if !math.IsNaN(x) {
			centred = append(centred, x-slope*(float64(i)-mid))
		}
	}
	return quantile(centred, 0.5)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap still reachable after forced collections. The second
// one frees what the first moved into sync.Pool victim caches, whose contents
// depend on timing.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// quantile is the q-quantile of v by nearest rank; 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// hitRadius is how close a confirmed track must come to an entity for the
// frame to count as a hit.
const hitRadius = 0.5

// countHits scores a room's exported tracks against its truth over frames
// 1..n-1 (frame 0 only seeds background subtraction): a frame is a hit for
// an entity when some confirmed track has a point at that frame within
// hitRadius of it.
func (o *outcome) countHits(dumps []service.TrackDump, tr truth, n int) {
	byFrame := make([][]geom.Point, n)
	for _, d := range dumps {
		if !d.Confirmed {
			continue
		}
		for _, p := range d.Points {
			if k := int(math.Round(p.Time * frameRate)); k >= 0 && k < n {
				byFrame[k] = append(byFrame[k], geom.Point{X: p.X, Y: p.Y})
			}
		}
	}
	hit := func(k int, at geom.Point) bool {
		for _, p := range byFrame[k] {
			if p.Dist(at) <= hitRadius {
				return true
			}
		}
		return false
	}
	for _, pos := range tr.humans {
		for k := 1; k < n && k < len(pos); k++ {
			o.humanFrames++
			if hit(k, pos[k]) {
				o.humanHits++
			}
		}
	}
	for k := 1; k < n && k < len(tr.ghost); k++ {
		o.ghostFrames++
		if hit(k, tr.ghost[k]) {
			o.ghostHits++
		}
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sameTracks reports the first difference between two track exports, bit
// for bit, or "" when they are identical.
func sameTracks(got, want []service.TrackDump) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d tracks, want %d", len(got), len(want))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, g := range got {
		w := want[i]
		if g.ID != w.ID || g.Confirmed != w.Confirmed || g.HasVelocity != w.HasVelocity ||
			g.ScoredFrames != w.ScoredFrames || g.Suspect != w.Suspect ||
			!same(g.RadialVelocity, w.RadialVelocity) || !same(g.SpoofHarmonic, w.SpoofHarmonic) ||
			!same(g.SpoofKinematic, w.SpoofKinematic) || !same(g.Suspicion, w.Suspicion) {
			return fmt.Sprintf("track %d header differs", w.ID)
		}
		if len(g.Points) != len(w.Points) {
			return fmt.Sprintf("track %d: %d points, want %d", w.ID, len(g.Points), len(w.Points))
		}
		for j, p := range g.Points {
			q := w.Points[j]
			if !same(p.Time, q.Time) || !same(p.X, q.X) || !same(p.Y, q.Y) {
				return fmt.Sprintf("track %d point %d differs", w.ID, j)
			}
		}
	}
	return ""
}
