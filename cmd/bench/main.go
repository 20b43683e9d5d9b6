// Command bench measures the simulation stack's hot paths — frame
// synthesis, FFTs, the pooled destination-passing kernels, and one
// end-to-end experiment — and writes a JSON snapshot so the performance
// trajectory can be tracked across PRs.
//
// Usage:
//
//	bench                      # full measurement, writes BENCH_pipeline.json
//	bench -out out.json        # alternate output path
//	bench -quick               # shorter runs for smoke-testing the harness
//	bench -quick -baseline BENCH_pipeline.json
//	                           # regression gate: re-measure and fail (exit 1)
//	                           # when ns/op regresses beyond -max-ns-ratio or
//	                           # an allocation-exact row gains an alloc/op
//
// Sequential numbers pin the worker pools to one worker; parallel numbers
// use one worker per available CPU. Both paths produce bit-identical
// frames (see internal/fmcw), so the speedup column is a pure cost
// comparison. On a single-CPU machine the speedups sit near 1×; the
// snapshot records cpus/gomaxprocs so readers can interpret the numbers.
//
// Schema v2 adds allocs_per_op / bytes_per_op to every row. Rows marked
// allocs_exact are single-worker pooled steady states whose allocation
// count is deterministic (the zero-allocation contract of the Into
// kernels); -baseline compares those exactly, so a stray allocation on the
// hot path fails CI even when the timing tolerance would hide it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/cmplx"
	"math/rand"
	"os"
	"runtime"
	"time"

	"rfprotect/internal/core"
	"rfprotect/internal/dsp"
	"rfprotect/internal/experiments"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/parallel"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// snapshotSchema is bumped whenever the JSON layout changes incompatibly;
// -baseline refuses to compare across schemas.
const snapshotSchema = 2

// Result is one measured configuration.
type Result struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// AllocsExact marks rows whose allocation count is deterministic: a
	// single-worker pooled steady state, where the Into kernels promise
	// zero allocations per op. benchdiff compares these rows' allocs/op
	// exactly (after rounding); other rows record allocations for
	// visibility only.
	AllocsExact bool `json:"allocs_exact,omitempty"`
}

// StreamResult is one capture-and-track run — streaming, concurrent,
// pooled, or batch — with its throughput, allocation rate, and
// retained-heap footprint.
type StreamResult struct {
	Name           string  `json:"name"`
	Frames         int     `json:"frames"`
	Workers        int     `json:"workers"`
	NsPerFrame     float64 `json:"ns_per_frame"`
	FramesPerSec   float64 `json:"frames_per_sec"`
	AllocsPerFrame float64 `json:"allocs_per_frame"`
	BytesPerFrame  float64 `json:"bytes_per_frame"`
	PeakHeapBytes  uint64  `json:"peak_heap_bytes"`
}

// Snapshot is the BENCH_pipeline.json schema.
type Snapshot struct {
	Schema     int                `json:"schema"`
	Generated  string             `json:"generated"`
	GoVersion  string             `json:"go_version"`
	CPUs       int                `json:"cpus"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Quick      bool               `json:"quick,omitempty"`
	Results    []Result           `json:"results"`
	Speedups   map[string]float64 `json:"speedups"`
	// Streaming holds the streaming-vs-batch comparison at two capture
	// lengths: the streaming rows' peak heap stays flat as frames grow,
	// the batch rows' grows linearly, and the pooled rows' allocs/frame
	// drop to the detection/tracking residue.
	Streaming []StreamResult `json:"streaming,omitempty"`
}

// sample is one measurement: mean wall time and mean allocation cost per
// call over the timed loop.
type sample struct {
	ns     float64
	iters  int
	allocs float64
	bytes  float64
}

// measureSamples is the min-of-K sub-sampling width: measure splits its
// window into this many independently timed sub-windows and reports the
// fastest one's mean ns/op. A single mean absorbs whatever the OS did
// during the window (5–10 % run-to-run jitter on the frame_synthesis and
// batch_fft rows), which eats gate headroom; the minimum of K means is a
// far more stable estimate of the code's actual cost, since interference
// only ever makes a sub-window slower.
const measureSamples = 3

// measure runs fn repeatedly for at least minDur (after one warm-up call),
// split into measureSamples sub-windows, and returns the min-of-K mean
// ns/op plus the heap-allocation deltas per op, read from runtime.MemStats
// around the whole timed span. The warm-up call runs before the first
// MemStats read, so one-time plan/scratch building never pollutes the
// steady-state allocation count; allocations are averaged over every
// iteration of every sub-window (allocation counts are deterministic, so
// they need no min).
func measure(minDur time.Duration, fn func()) sample {
	fn() // warm caches, FFT plans, and kernel scratch
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	winDur := minDur / measureSamples
	best := 0.0
	totalIters := 0
	for s := 0; s < measureSamples; s++ {
		var iters int
		var elapsed time.Duration
		start := time.Now()
		for {
			fn()
			iters++
			if elapsed = time.Since(start); elapsed >= winDur && iters >= 3 {
				break
			}
		}
		ns := float64(elapsed.Nanoseconds()) / float64(iters)
		if s == 0 || ns < best {
			best = ns
		}
		totalIters += iters
	}
	runtime.ReadMemStats(&m1)
	return sample{
		ns:     best,
		iters:  totalIters,
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(totalIters),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(totalIters),
	}
}

func main() {
	out := flag.String("out", "BENCH_pipeline.json", "output path (- for stdout)")
	quick := flag.Bool("quick", false, "shorter measurement windows")
	seed := flag.Int64("seed", 1, "random seed for synthetic workloads")
	baseline := flag.String("baseline", "", "baseline snapshot to compare against; exit 1 on regression (no snapshot is written unless -out is given explicitly)")
	nsRatio := flag.Float64("max-ns-ratio", 4, "with -baseline: fail when a row exceeds baseline ns/op times this ratio")
	flag.Parse()

	minDur := 2 * time.Second
	if *quick {
		minDur = 200 * time.Millisecond
	}

	streamLens := []int{64, 256}
	if *quick {
		streamLens = []int{12, 36}
	}
	var base *Snapshot
	if *baseline != "" {
		b, err := loadSnapshot(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if b.Schema != snapshotSchema {
			fmt.Fprintf(os.Stderr, "bench: baseline %s has schema %d, this binary writes schema %d — regenerate it with `make bench`\n",
				*baseline, b.Schema, snapshotSchema)
			os.Exit(2)
		}
		base = b
		// Re-run the streaming section at the baseline's capture lengths so
		// the rows line up even under -quick; ns/frame and allocs/frame are
		// only comparable at equal frame counts.
		if lens := baselineStreamLens(base); len(lens) > 0 {
			streamLens = lens
		}
	}

	snap := runSnapshot(minDur, *seed, streamLens, *quick)

	if base != nil {
		fails := compareSnapshots(base, &snap, *nsRatio)
		if len(fails) > 0 {
			fmt.Fprintf(os.Stderr, "\nbenchdiff: %d regression(s) against %s:\n", len(fails), *baseline)
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "  FAIL:", f)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "\nbenchdiff: ok — %d result rows and %d streaming rows within tolerance of %s\n",
			len(snap.Results), len(snap.Streaming), *baseline)
	}

	// In baseline mode the run is a gate, not a refresh: never overwrite the
	// baseline by accident via -out's default. Write only when -out was
	// given explicitly.
	outSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})
	if *baseline != "" && !outSet {
		return
	}
	writeSnapshot(*out, &snap)
}

// runSnapshot performs every measurement and assembles the snapshot. Every
// result row has a unique name and every streaming row a unique
// (name, frames) pair: -baseline matches rows by those keys, so row order
// is free, and adding, removing or renaming a row means regenerating the
// committed baseline.
func runSnapshot(minDur time.Duration, seed int64, streamLens []int, quick bool) Snapshot {
	ctx := context.Background()
	snap := Snapshot{
		Schema:     snapshotSchema,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Speedups:   map[string]float64{},
	}
	add := func(name string, workers int, s sample, exact bool) {
		snap.Results = append(snap.Results, Result{
			Name: name, Workers: workers, Iters: s.iters,
			NsPerOp: s.ns, AllocsPerOp: s.allocs, BytesPerOp: s.bytes,
			AllocsExact: exact,
		})
		fmt.Fprintf(os.Stderr, "%-36s workers=%-3d %12.0f ns/op  %8.1f allocs/op  (%d iters)\n",
			name, workers, s.ns, s.allocs, s.iters)
	}

	// Frame synthesis: the per-frame beat-signal accumulation that
	// dominates every experiment, into a fresh frame per op at one worker
	// and at one worker per CPU. 64 returns ≈ a cluttered multipath room.
	params := fmcw.DefaultParams()
	returns := synthReturns(64, seed)
	rng := rand.New(rand.NewSource(seed))
	seq := measure(minDur, func() { synthFrame(ctx, params, returns, 0, rng, 1) })
	add("frame_synthesis_w1", 1, seq, false)
	par := measure(minDur, func() { synthFrame(ctx, params, returns, 0, rng, 0) })
	add("frame_synthesis_wN", runtime.GOMAXPROCS(0), par, false)
	snap.Speedups["frame_synthesis"] = seq.ns / par.ns

	// The same synthesis through the pooled destination-passing path: frame
	// from a FramePool, the shared plan's SynthesizeInto, frame back to the
	// pool. Bit-identical output (see internal/fmcw tests); steady state
	// allocates nothing.
	pool := fmcw.NewFramePool(params)
	into := measure(minDur, func() {
		f := pool.Get(0)
		if err := fmcw.PlanSynth(params).SynthesizeInto(ctx, f, returns, rng, 1); err != nil {
			fatal("synthesize-into", err)
		}
		pool.Put(f)
	})
	add("frame_synthesis_into_pooled", 1, into, true)

	// The synthesis-plan gate pair: the retained legacy kernel (serial
	// per-(return × antenna) phasor recurrence) against the compiled plan
	// (per-return rotation tables + scaled complex MAC) on the identical
	// workload. Both rows are measured in this run, so the synth_plan
	// speedup is machine-independent; compare.go enforces its floor.
	legacy := measure(minDur, func() {
		f := pool.Get(0)
		if err := fmcw.SynthesizeLegacyInto(ctx, f, returns, rng, 1); err != nil {
			fatal("synthesize-legacy", err)
		}
		pool.Put(f)
	})
	add("frame_synthesis_legacy", 1, legacy, true)
	splan := fmcw.PlanSynth(params)
	planned := measure(minDur, func() {
		f := pool.Get(0)
		if err := splan.SynthesizeInto(ctx, f, returns, rng, 1); err != nil {
			fatal("synthesize-planned", err)
		}
		pool.Put(f)
	})
	add("frame_synthesis_planned", 1, planned, true)
	snap.Speedups["synth_plan"] = legacy.ns / planned.ns

	// Single 512-point range FFT, cached plan (steady state of the radar
	// pipeline): in place over a copy, and through the FFTTo destination-
	// passing variant. Both are allocation-free once the plan is cached.
	x := synthSignal(512, seed)
	buf := make([]complex128, len(x))
	fft := measure(minDur, func() {
		copy(buf, x)
		dsp.FFTInPlace(buf)
	})
	add("fft_512_cached_plan", 1, fft, true)
	fftTo := measure(minDur, func() { dsp.FFTTo(buf, x) })
	add("fft_512_to", 1, fftTo, true)

	// Real-input FFT: the half-spectrum transform (pack-two-reals over a
	// size-256 complex FFT) against the full complex transform above, plain
	// and with the window fused into the pack. Both reuse the cached plan
	// and allocate nothing.
	rx := make([]float64, len(x))
	for i, v := range x {
		rx[i] = real(v)
	}
	half := make([]complex128, len(x)/2+1)
	rfftS := measure(minDur, func() { dsp.RFFTTo(half, rx) })
	add("rfft_512_to", 1, rfftS, true)
	snap.Speedups["rfft_vs_fft"] = fftTo.ns / rfftS.ns
	hann := dsp.Hann.Coefficients(len(x))
	wrfftS := measure(minDur, func() { dsp.WindowedRFFTTo(half, rx, hann) })
	add("windowed_rfft_512", 1, wrfftS, true)

	// Plan construction cost, for the record: transform a size the process
	// has never seen, forcing a cold plan build, vs the warm transform.
	// (Each iteration uses a fresh odd size, so every call builds a plan.)
	coldSize := 1031
	cold := measure(minDur/4, func() {
		dsp.FFTInPlace(synthSignal(coldSize, seed))
		coldSize += 2
	})
	add("fft_cold_plan_build_~1k", 1, cold, false)

	// Magnitude kernel delta: the historical cmplx.Abs formulation against
	// the math.Hypot one dsp.Magnitude now uses. Same dst, same input; the
	// difference is pure per-element cost.
	mag := make([]float64, len(x))
	abs := measure(minDur, func() {
		for i, v := range x {
			mag[i] = cmplx.Abs(v)
		}
	})
	add("magnitude_512_cmplx_abs", 1, abs, true)
	hyp := measure(minDur, func() { dsp.MagnitudeTo(mag, x) })
	add("magnitude_512_hypot", 1, hyp, true)
	snap.Speedups["magnitude_hypot"] = abs.ns / hyp.ns

	// Batch FFT: 64 rows of 512, the shape of a multi-frame Doppler burst.
	batch := make([][]complex128, 64)
	for i := range batch {
		batch[i] = synthSignal(512, seed+int64(i))
	}
	bseq := measure(minDur, func() { batchFFT(ctx, batch, 1) })
	add("batch_fft_64x512_w1", 1, bseq, false)
	bpar := measure(minDur, func() { batchFFT(ctx, batch, 0) })
	add("batch_fft_64x512_wN", runtime.GOMAXPROCS(0), bpar, false)
	snap.Speedups["batch_fft"] = bseq.ns / bpar.ns

	// Pooled hot-path kernels, one row per stage of the steady-state frame
	// path: background subtraction through a pooled Differencer, the
	// range-FFT + beamform kernel into a reused Profile, and the Doppler
	// burst kernel into a reused map. All three are single-worker pooled
	// steady states — the allocation count must be exactly zero.
	frameA := synthFrame(ctx, params, returns, 0, rand.New(rand.NewSource(seed)), 1)
	frameB := synthFrame(ctx, params, returns[:len(returns)/2], 1/params.FrameRate, rand.New(rand.NewSource(parallel.SplitSeed(seed, 1))), 1)
	var dif fmcw.Differencer
	dif.UsePool(pool)
	flip := false
	diffS := measure(minDur, func() {
		f := frameA
		if flip {
			f = frameB
		}
		flip = !flip
		if out, ok := dif.Step(f); ok {
			pool.Put(out)
		}
	})
	add("differencer_step_pooled", 1, diffS, true)

	cfg := radar.DefaultConfig()
	cfg.Workers = 1
	plan := radar.CompileFrontEndPlan(cfg, params)
	diffFrame := frameA.Sub(frameB)
	prof := &radar.Profile{}
	raS := measure(minDur, func() {
		if err := plan.RangeAngleInto(ctx, diffFrame, prof); err != nil {
			fatal("range-angle-into", err)
		}
	})
	add("range_angle_plan_pooled", 1, raS, true)

	chirps := make([]*fmcw.Frame, 8)
	for i := range chirps {
		chirps[i] = synthFrame(ctx, params, returns, float64(i)/params.FrameRate, rng, 1)
	}
	var rdMap radar.RangeDopplerMap
	rdS := measure(minDur, func() {
		if err := plan.RangeDopplerInto(ctx, &rdMap, chirps, 0, 1/params.FrameRate); err != nil {
			fatal("range-doppler-into", err)
		}
	})
	add("doppler_win8_specialized", 1, rdS, true)

	// The pipeline's own per-frame machinery — source pull, Item checkout
	// from the free list, stage dispatch, recycle, Item return — over a
	// replayed frame and a counting no-op stage, so nothing but the
	// machinery itself runs. One warm-up run materializes the steady-state
	// Item; after that a 16-frame Run must allocate exactly nothing.
	bsrc := &replaySource{f: frameA, n: 16}
	bp := pipeline.New(bsrc, &countStage{})
	if _, err := bp.Run(ctx); err != nil {
		fatal("pipeline-run", err)
	}
	itemS := measure(minDur, func() {
		bsrc.i = 0
		if _, err := bp.Run(ctx); err != nil {
			fatal("pipeline-run", err)
		}
	})
	add("pipeline_run_item_pooled", 1, itemS, true)

	// Streaming vs batch: the same eavesdropper capture-and-track workload
	// run through the bounded-memory pipeline (one frame in flight), the
	// stage-overlapped scheduler, the pooled pipeline (recycled frame,
	// profile, and Doppler buffers), and the batch path (all frames
	// materialized). Two capture lengths expose the memory asymptotics.
	addStream := func(name string, frames int, r streamSample) {
		snap.Streaming = append(snap.Streaming, StreamResult{
			Name:           name,
			Frames:         frames,
			Workers:        runtime.GOMAXPROCS(0),
			NsPerFrame:     r.ns,
			FramesPerSec:   1e9 / r.ns,
			AllocsPerFrame: r.allocs,
			BytesPerFrame:  r.bytes,
			PeakHeapBytes:  r.peak,
		})
		fmt.Fprintf(os.Stderr, "%-36s frames=%-4d %12.0f ns/frame  %8.1f frames/s  %8.1f allocs/frame  peak heap %6.1f MiB\n",
			name, frames, r.ns, 1e9/r.ns, r.allocs, float64(r.peak)/(1<<20))
	}
	span := streamLens[len(streamLens)-1]
	for _, n := range streamLens {
		s := captureRun(ctx, seed, n, span, modeStreaming)
		addStream("streaming_capture_track", n, s)
		c := captureRun(ctx, seed, n, span, modeConcurrent)
		addStream("streaming_capture_track_concurrent", n, c)
		p := captureRun(ctx, seed, n, span, modePooled)
		addStream("streaming_capture_track_pooled", n, p)
		if n == span {
			// Stage-overlap speedup of the ≥2-stage chain at the longest
			// capture; near 1× on a single CPU, above it once stages can
			// genuinely run on different cores. The pooled ratio is the
			// allocation story instead: how much per-frame garbage the
			// buffer-recycling path eliminates.
			snap.Speedups["concurrent_pipeline"] = s.ns / c.ns
			if p.allocs > 0 {
				snap.Speedups["pooled_allocs_reduction"] = s.allocs / p.allocs
			}
		}
		b := captureRun(ctx, seed, n, span, modeBatch)
		addStream("batch_capture_track", n, b)
	}

	// Sliding-window Doppler: steady-state per-frame cost of the K-frame
	// ring-buffer range–Doppler recompute (slow-time FFT over 8 frames of
	// 512-sample chirps, every range bin), through the pooled stage — map
	// from a DopplerPool, recycled per frame — so the row is a
	// single-worker pooled steady state and its allocation count gates
	// exactly like the other Into rows.
	dop := measure(minDur, dopplerStageRun(ctx, seed))
	add("doppler_stage_win8_per_frame", 1, dop, true)

	// End-to-end experiment: Fig. 9 radar localization (no GAN training),
	// covering synthesis, range-angle profiles, peaks, and tracking.
	e2e := measure(minDur, func() {
		if _, err := experiments.Fig9Ctx(ctx, seed); err != nil {
			fatal("fig9", err)
		}
	})
	add("experiment_fig9_end_to_end", runtime.GOMAXPROCS(0), e2e, false)

	// Adversary-suite smoke: one trajectory per arm through the full
	// arms-race loop — naive tag, hardened tag, human control, and the
	// replay-spoofer probes — pinning the end-to-end cost of the
	// spoof-detection stack (capture, Doppler, tracking, scoring).
	arms := measure(minDur, func() {
		if _, err := experiments.ArmsRaceCtx(ctx, experiments.Sizes{TrajPerRoom: 1}, seed); err != nil {
			fatal("armsrace", err)
		}
	})
	add("experiment_armsrace_smoke", runtime.GOMAXPROCS(0), arms, false)

	return snap
}

func fatal(what string, err error) {
	fmt.Fprintf(os.Stderr, "bench: %s: %v\n", what, err)
	os.Exit(1)
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func writeSnapshot(path string, snap *Snapshot) {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fatal("write", err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fatal("encode", err)
	}
}

// captureRun modes: the sequential streaming pipeline, the stage-overlapped
// concurrent scheduler (goroutine per stage, bounded channels), the pooled
// pipeline (the same sequential chain with its buffers recycled through
// UsePools), and the batch path.
const (
	modeStreaming = iota
	modeConcurrent
	modePooled
	modeBatch
)

// streamSample is one capture-and-track measurement: per-frame wall time
// and allocation cost, plus the heap retained at the end of the run.
type streamSample struct {
	ns     float64
	allocs float64
	bytes  float64
	peak   uint64
}

// captureRun measures one eavesdropper session — synthesize nFrames of a
// home with a programmed ghost, range-angle process, track — through the
// selected path. The ghost walks for span frames, the longest capture of the
// run, so it is present in every frame of every capture length; a shorter
// ghost would leave the later frames to noise peaks. All paths produce
// bit-identical tracks; only cost and footprint differ.
func captureRun(ctx context.Context, seed int64, nFrames, span int, mode int) streamSample {
	sess, err := core.NewSession(core.SessionConfig{Room: scene.HomeRoom()})
	if err != nil {
		fatal("session", err)
	}
	sc := sess.Scene
	cx := sc.Radar.Position.X
	ghost := make(geom.Trajectory, span)
	for i := range ghost {
		f := float64(i) / float64(len(ghost)-1)
		ghost[i] = geom.Point{X: cx + 0.3 + f, Y: 2.7 + 1.5*f}
	}
	if _, err := sess.Ctl.ProgramForRadar(ghost, sc.Radar, sc.Params.FrameRate, 0); err != nil {
		fatal("ghost", err)
	}
	rng := rand.New(rand.NewSource(seed))
	pr := radar.NewProcessor(radar.DefaultConfig())

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var tracks []*radar.Track
	var frames []*fmcw.Frame
	switch mode {
	case modeBatch:
		frames, err = sc.CaptureCtx(ctx, 0, nFrames, rng)
		if err != nil {
			fatal("capture", err)
		}
		dets, err := pr.ProcessFrames(ctx, frames, sc.Radar)
		if err != nil {
			fatal("process-frames", err)
		}
		tracks = radar.TrackDetections(radar.TrackerConfig{}, dets)
	default:
		// One chain for every streaming row: the pooled row only adds the
		// recycling half (source pool + UsePools).
		plan := pr.Plan(sc.Params)
		pools := pipeline.NewPools(sc.Params)
		trk := pipeline.NewTrack(radar.TrackerConfig{})
		src := sc.Stream(0, nFrames, rng)
		p := pipeline.New(src, append(pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools), trk)...)
		if mode == modePooled {
			src.UsePool(pools.Frames)
			p.UsePools(pools)
		}
		if mode == modeConcurrent {
			_, err = p.RunConcurrent(ctx, 2)
		} else {
			_, err = p.Run(ctx)
		}
		if err != nil {
			fatal("pipeline", err)
		}
		tracks = trk.Tracks()
	}
	elapsed := time.Since(start)
	// Collect transient garbage first so the reading is the heap the run
	// actually holds on to — the batch path's frames are still referenced
	// here, the streaming path never kept any. (Mallocs/TotalAlloc are
	// monotonic, so the forced GC doesn't disturb the per-frame rates.)
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(frames)
	runtime.KeepAlive(tracks)
	r := streamSample{
		ns:     float64(elapsed.Nanoseconds()) / float64(nFrames),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(nFrames),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(nFrames),
	}
	if m1.HeapAlloc > m0.HeapAlloc {
		r.peak = m1.HeapAlloc - m0.HeapAlloc
	}
	return r
}

// dopplerStageRun returns a closure measuring the steady-state per-frame
// cost of the sliding-window DopplerStage: the window is pre-filled, so each
// call is one push plus one full range–Doppler recompute. The stage runs in
// its pooled form with a reused Item, mirroring how the streaming pipeline
// drives it (the pipeline recycles the map when the item completes; here
// the closure recycles it directly), so a warmed iteration allocates
// exactly nothing.
func dopplerStageRun(ctx context.Context, seed int64) func() {
	params := fmcw.DefaultParams()
	rng := rand.New(rand.NewSource(seed))
	returns := synthReturns(4, seed)
	frame := synthFrame(ctx, params, returns, 0, rng, 1)
	cfg := radar.DefaultConfig()
	cfg.Workers = 1
	dpool := radar.NewDopplerPool()
	dop := pipeline.NewDopplerPlanned(radar.CompileFrontEndPlan(cfg, params), 8, 0, dpool)
	it := &pipeline.Item{Frame: frame}
	i := 0
	step := func() {
		it.Index = i
		it.RangeDoppler = nil
		if err := dop.Process(ctx, it); err != nil {
			fatal("doppler", err)
		}
		dpool.Put(it.RangeDoppler)
		i++
	}
	for i < 8 {
		step()
	}
	return step
}

// replaySource replays one caller-owned frame n times without allocating;
// rewinding i rearms it. It isolates the pipeline machinery's cost from
// synthesis and DSP.
type replaySource struct {
	f    *fmcw.Frame
	n, i int
}

func (s *replaySource) Next(ctx context.Context) (*fmcw.Frame, error) {
	if s.i >= s.n {
		return nil, io.EOF
	}
	s.i++
	return s.f, nil
}

// countStage touches every item without retaining it.
type countStage struct{ n int }

func (s *countStage) Name() string { return "count" }

func (s *countStage) Process(ctx context.Context, it *pipeline.Item) error {
	s.n++
	return nil
}

// synthFrame synthesizes returns into a fresh frame captured at at through
// the shared plan for p.
func synthFrame(ctx context.Context, p fmcw.Params, returns []fmcw.Return, at float64, rng *rand.Rand, workers int) *fmcw.Frame {
	f := fmcw.NewFrame(p, at)
	if err := fmcw.PlanSynth(p).SynthesizeInto(ctx, f, returns, rng, workers); err != nil {
		fatal("synthesize", err)
	}
	return f
}

// batchFFT transforms every row of batch in place.
func batchFFT(ctx context.Context, batch [][]complex128, workers int) {
	if err := dsp.FFTEachCtx(ctx, batch, workers); err != nil {
		fatal("batch-fft", err)
	}
}

// synthReturns mirrors the mixed workload the fmcw benchmarks use.
func synthReturns(n int, seed int64) []fmcw.Return {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fmcw.Return, n)
	for i := range out {
		out[i] = fmcw.Return{
			Delay:     2 * (1 + 10*rng.Float64()) / fmcw.C,
			Amplitude: 0.05 + rng.Float64(),
			AoA:       rng.Float64() * 3.1,
			FreqShift: float64(i%3) * 20e3,
			Phase:     rng.Float64(),
		}
	}
	return out
}

func synthSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}
