// Command rfbench is the repository's end-to-end benchmark. It runs the
// eavesdropper frame path the way users run it — synthetic rooms and
// radar-fed ingest rooms inside the daemon (service.Manager behind its real
// HTTP handler on a loopback listener) — checks the outputs, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload room-long -seed 1 -seconds 15          # end to end
//	go run . -workload ingest-live -seed 1 -seconds 15 -trace 1 # per layer
//	go run . -workload all -seed 1                              # every workload
//
// Run it from cmd/rfbench (its own module), or through run.sh from
// anywhere in the checkout. The end-to-end run (-trace 0) measures with no
// instrumentation. The traced run (-trace 1) does a third of the workload's
// work, then replays every room it ran through a library mirror of the
// room's chain twice, untraced and traced, and reports per-layer times from
// the traced replay. See README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"time"

	"rfprotect/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number's name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of the untraced run, perLayer those of the
// traced run. BENCHMARK.json lists the same names and units.
var endToEnd = []metric{
	{"frames_per_s", "frames/s"},
	{"latency_ms_p50", "ms"},
	{"cpu_ms_per_frame", "ms"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metric{
	{"scene.next_us", "us"}, {"scene.next_us_p99", "us"},
	{"fmcw.subtract_us", "us"}, {"fmcw.subtract_us_p99", "us"},
	{"radar.range_angle_us", "us"}, {"radar.range_angle_us_p99", "us"},
	{"radar.peak_extract_us", "us"}, {"radar.peak_extract_us_p99", "us"},
	{"radar.doppler_us", "us"}, {"radar.doppler_us_p99", "us"},
	{"radar.track_us", "us"}, {"radar.track_us_p99", "us"},
	{"detect.score_us", "us"}, {"detect.score_us_p99", "us"},
	{"service.snapshot_us", "us"}, {"service.snapshot_us_p99", "us"},
	{"pipeline.self_us", "us"}, {"pipeline.self_us_p99", "us"},
	{"pipeline.frame_us", "us"}, {"pipeline.frame_us_p99", "us"},
	{"pipeline.unaccounted_share", "ratio"},
	{"service.snapshot_growth", "ratio"},
	{"scene.returns_per_frame", "count"},
	{"radar.detections_per_frame", "count"},
	{"radar.tracks_confirmed_end", "count"},
	{"radar.tracks_active_mean", "count"},
	{"radar.ghost_hit_rate", "ratio"},
	{"radar.human_hit_rate", "ratio"},
	{"service.post_ms_p50", "ms"}, {"service.post_ms_p99", "ms"},
	{"service.ingest_bytes_per_frame", "B"},
	{"service.accept_to_event_ms_p50", "ms"}, {"service.accept_to_event_ms_p99", "ms"},
	{"service.event_bytes_mean", "B"},
	{"service.queue_depth_max", "count"},
	{"service.rejected", "count"},
	{"service.events_dropped", "count"},
	{"bench.allocs_per_frame", "allocs"},
	{"bench.latency_ms_p99", "ms"},
	{"bench.late_frac", "ratio"},
	{"bench.send_lag_ms_p99", "ms"},
	{"bench.tracing_overhead_share", "ratio"},
	{"bench.mirror_coverage", "ratio"},
}

// workload is one input set the benchmark runs.
type workload struct {
	name string
	run  func(b *bench, seconds float64) (*outcome, error)
	// humanFloor and ghostFloor are the lowest hit rates the run accepts.
	humanFloor, ghostFloor float64
}

// The hit-rate floors are the lowest rates seen over seeds 1–10 at
// -seconds 15, less 0.2 for humans and 0.15 for ghosts: wide enough for a
// one-second test run, tight enough to catch a tracker that stops tracking.
var workloads = []workload{
	{name: "room-long", run: runRoomLong, humanFloor: 0.35, ghostFloor: 0.66},
	{name: "rooms-short", run: runRoomsShort, humanFloor: 0.44, ghostFloor: 0.41},
	{name: "ingest-live", run: func(b *bench, s float64) (*outcome, error) { return runIngest(b, s, true) }, humanFloor: 0.44, ghostFloor: 0.56},
	{name: "ingest-bulk", run: func(b *bench, s float64) (*outcome, error) { return runIngest(b, s, false) }, humanFloor: 0.44, ghostFloor: 0.56},
}

// gomaxprocs fixes the scheduler width, so runs on machines with more CPUs
// measure the same two-core daemon.
const gomaxprocs = 2

// setupRepeats is how many times an end-to-end run sets the daemon up; it
// reports the median.
const setupRepeats = 9

// bench is one run's settings and inputs.
type bench struct {
	workload workload
	seconds  float64
	setups   int
	spans    string
	in       inputs
	clock    *clock
	out      io.Writer
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// problems are the failed checks behind Correct == false.
	problems []string
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: room-long, rooms-short, ingest-live, ingest-bulk, or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "run length: each workload's work is sized to take about this long on a two-core machine")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	spans := fs.String("spans", "", "traced pass: Chrome trace-event output (default .bench_build/rfbench-spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "rfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "rfbench: unknown workload %q\n", *name)
		return 2
	}
	b := &bench{
		workload: *w, seconds: *seconds, setups: setupRepeats, spans: *spans,
		in: newInputs(w.name, *seed, *seconds), clock: &clock{epoch: time.Now()}, out: stdout,
	}
	if b.spans == "" {
		b.spans = ".bench_build/rfbench-spans-" + w.name + ".json"
	}
	fmt.Fprintf(stdout, "rfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d numcpu=%d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())

	var res *result
	var err error
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(stderr, "rfbench: %s: %v\n", w.name, err)
		return 1
	}
	list := endToEnd
	if *trace == 1 {
		list = perLayer
	}
	for _, m := range list {
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "rfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		for _, p := range res.problems {
			fmt.Fprintf(stderr, "rfbench: %s: check failed: %s\n", w.name, p)
		}
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh child process, so no plan cache,
// pool or GC state carries over and each set-up is cold.
func runAll(seed int64, seconds float64, trace int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "rfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "rfbench: %s: %v\n", w.name, err)
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				return 1
			}
			code = 1
		}
	}
	return code
}

// newResult starts a result from a pass's counts and checks, adding the
// hit-rate floors of the workload.
func (b *bench) newResult(o *outcome) *result {
	if o.frames == 0 {
		o.fail("no frames completed in the window")
	}
	hr, gr := ratio(o.humanHits, o.humanFrames), ratio(o.ghostHits, o.ghostFrames)
	fmt.Fprintf(b.out, "  hit rates: human %.4f (%d frames), ghost %.4f (%d frames)\n", hr, o.humanFrames, gr, o.ghostFrames)
	if hr < b.workload.humanFloor {
		o.fail("human hit rate %.3f below its floor %.3f", hr, b.workload.humanFloor)
	}
	if gr < b.workload.ghostFloor {
		o.fail("ghost hit rate %.3f below its floor %.3f", gr, b.workload.ghostFloor)
	}
	if o.failed > 0 {
		o.fail("%d of %d attempted frames failed", o.failed, o.attempted)
	}
	return &result{Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]value{}}
}

// finish stores the metrics of list in r and settles r.Correct.
func (b *bench) finish(r *result, o *outcome, list []metric, vals map[string]float64) *result {
	for _, m := range list {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.fail("metric %s has no finite value", m.name)
			v = 0
		}
		r.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	for _, p := range o.problems {
		fmt.Fprintf(b.out, "CHECK FAILED: %s\n", p)
	}
	r.Correct, r.problems = len(o.problems) == 0, o.problems
	return r
}

// endToEnd is the untraced pass.
func (b *bench) endToEnd() (*result, error) {
	o, err := b.workload.run(b, b.seconds)
	if err != nil {
		return nil, err
	}
	r := b.newResult(o)
	return b.finish(r, o, endToEnd, map[string]float64{
		"frames_per_s": trendMedian(o.perSlice(func(f float64, d, _ time.Duration, _ float64) float64 {
			return f / d.Seconds()
		})),
		"latency_ms_p50": trendMedian(o.sliceLatency()),
		"cpu_ms_per_frame": trendMedian(o.perSlice(func(f float64, _, cpu time.Duration, _ float64) float64 {
			return perFrame(float64(cpu)/1e6, f)
		})),
		"heap_live_mb": float64(o.heapLive) / 1e6,
		"setup_s":      quantile(o.setups, 0.5),
	}), nil
}

// perFrame is x per frame, NaN for a slice without frames.
func perFrame(x, frames float64) float64 {
	if frames == 0 {
		return math.NaN()
	}
	return x / frames
}

// mirrorJob is one room of the traced pass's workload, to be replayed.
type mirrorJob struct {
	name   string
	frames int
	build  func(*recorder) (*mirror, error)
	dumps  []service.TrackDump
}

// traced is the per-layer pass: a third of the workload's work, then every
// room it ran replayed through its mirror, untraced and traced.
func (b *bench) traced() (*result, error) {
	b.setups = 1
	o, err := b.workload.run(b, b.seconds/3)
	if err != nil {
		return nil, err
	}
	r := b.newResult(o)

	var jobs []mirrorJob
	for _, sr := range o.synth {
		cfg, n := sr.cfg, sr.status.Frames
		jobs = append(jobs, mirrorJob{name: cfg.ID, frames: n, dumps: sr.dumps,
			build: func(rec *recorder) (*mirror, error) { return newSyntheticMirror(cfg, n, rec) }})
	}
	for _, ir := range o.ingest {
		room, n := ir.r, ir.sent
		jobs = append(jobs, mirrorJob{name: ir.id, frames: n, dumps: ir.dumps,
			build: func(rec *recorder) (*mirror, error) { return newIngestMirror(o.loop.frames, room, n, rec) }})
	}
	total := 0
	for _, j := range jobs {
		total += j.frames
	}

	// pass replays every room, timing only the runs (not the assembly), and
	// checks each mirror's tracks against its room's.
	returns := 0.0
	pass := func(rec *recorder) (wall, cpu time.Duration, err error) {
		for i, j := range jobs {
			if rec != nil {
				rec.beginRoom(i)
			}
			m, err := j.build(rec)
			if err != nil {
				return 0, 0, err
			}
			t0, c0 := time.Now(), cpuTime()
			if err := m.run(); err != nil {
				return 0, 0, fmt.Errorf("mirror of %s: %w", j.name, err)
			}
			wall += time.Since(t0)
			cpu += cpuTime() - c0
			if diff := sameTracks(m.tracks(), j.dumps); diff != "" {
				o.fail("mirror of %s is not bit-identical to the room: %s", j.name, diff)
			}
			if rec != nil && len(o.synth) > 0 {
				returns += meanReturns(m.sc, j.frames) * float64(j.frames)
			}
		}
		return wall, cpu, nil
	}
	// Warm the process up on the first room, so that neither timed pass
	// pays for first-use work the other does not.
	if m, err := jobs[0].build(nil); err != nil {
		return nil, err
	} else if err := m.run(); err != nil {
		return nil, err
	}
	plainWall, plainCPU, err := pass(nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(total)
	tracedWall, _, err := pass(rec)
	if err != nil {
		return nil, err
	}
	if err := rec.writeChromeTrace(b.spans); err != nil {
		return nil, err
	}
	lt := rec.times()
	b.printSixths(lt)

	vals := map[string]float64{}
	for l := lNext; l <= lFrame; l++ {
		name := layerNames[l] + "_us"
		vals[name] = mean(lt.us[l])
		vals[name+"_p99"] = quantile(lt.us[l], 0.99)
	}
	vals["pipeline.self_us"] = mean(lt.self)
	vals["pipeline.self_us_p99"] = quantile(lt.self, 0.99)
	vals["pipeline.unaccounted_share"] = mean(lt.self) / mean(lt.us[lFrame])
	snap := sixths(lt.us[lSnapshot], lt.age)
	vals["service.snapshot_growth"] = snap[5] / snap[0]

	if len(o.synth) > 0 {
		vals["scene.returns_per_frame"] = returns / float64(total)
	} else {
		vals["scene.returns_per_frame"] = o.loop.returns
	}
	vals["radar.detections_per_frame"] = float64(rec.dets) / float64(total)
	vals["radar.tracks_active_mean"] = float64(rec.active) / float64(total)
	confirmed := 0
	for _, j := range jobs {
		confirmed += len(j.dumps)
	}
	vals["radar.tracks_confirmed_end"] = float64(confirmed) / float64(len(jobs))
	vals["radar.ghost_hit_rate"] = ratio(o.ghostHits, o.ghostFrames)
	vals["radar.human_hit_rate"] = ratio(o.humanHits, o.humanFrames)

	vals["service.post_ms_p50"] = quantile(o.postMs, 0.5)
	vals["service.post_ms_p99"] = quantile(o.postMs, 0.99)
	vals["service.ingest_bytes_per_frame"] = float64(o.ingestBytes) / float64(max(o.attempted, 1))
	vals["service.accept_to_event_ms_p50"] = quantile(o.acceptMs, 0.5)
	vals["service.accept_to_event_ms_p99"] = quantile(o.acceptMs, 0.99)
	vals["service.event_bytes_mean"] = float64(o.eventBytes) / float64(max(o.eventLines, 1))
	vals["service.queue_depth_max"] = float64(o.queueMax)
	vals["service.rejected"] = float64(o.rejected)
	vals["service.events_dropped"] = float64(o.eventsDropped)
	vals["bench.allocs_per_frame"] = trendMedian(o.perSlice(func(f float64, _, _ time.Duration, allocs float64) float64 {
		return perFrame(allocs, f)
	}))
	vals["bench.latency_ms_p99"] = quantile(o.latencyMs, 0.99)
	vals["bench.late_frac"] = ratio(o.late, o.attempted)
	vals["bench.send_lag_ms_p99"] = quantile(o.sendLagMs, 0.99)
	vals["bench.tracing_overhead_share"] = tracedWall.Seconds()/plainWall.Seconds() - 1
	vals["bench.mirror_coverage"] = (plainCPU.Seconds() / float64(total)) / (o.cpu.Seconds() / float64(o.frames))
	return b.finish(r, o, perLayer, vals), nil
}

// printSixths prints each layer's mean time per sixth of the rooms' lives:
// a layer whose cost grows with room age shows a rising row.
func (b *bench) printSixths(lt layerTimes) {
	fmt.Fprintf(b.out, "  per-frame µs by sixth of room age:\n")
	row := func(name string, v []float64) {
		s := sixths(v, lt.age)
		fmt.Fprintf(b.out, "    %-22s", name)
		for _, x := range s {
			fmt.Fprintf(b.out, " %9.1f", x)
		}
		fmt.Fprintln(b.out)
	}
	for l := lNext; l <= lFrame; l++ {
		row(layerNames[l], lt.us[l])
	}
	row("pipeline.self", lt.self)
}
