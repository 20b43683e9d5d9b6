// Command bench is the kernel gate: it measures the simulation stack's hot
// paths — frame synthesis, FFTs, and the pooled destination-passing kernels
// of the frame path — and writes a JSON snapshot so the performance
// trajectory can be tracked across changes. End-to-end throughput and
// latency are cmd/rfbench's job; the paper results are pinned by the
// experiment goldens.
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
	"math/rand"
	"os"
	"runtime"
	"time"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/parallel"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
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
// during the window (5–10 % run-to-run jitter on the frame_synthesis
// rows), which eats gate headroom; the minimum of K means is a
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
	}

	snap := runSnapshot(minDur, *seed, *quick)

	if base != nil {
		fails := compareSnapshots(base, &snap, *nsRatio)
		if len(fails) > 0 {
			fmt.Fprintf(os.Stderr, "\nbenchdiff: %d regression(s) against %s:\n", len(fails), *baseline)
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "  FAIL:", f)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "\nbenchdiff: ok — %d result rows within tolerance of %s\n",
			len(snap.Results), *baseline)
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
// row has a unique name: -baseline matches rows by name, so row order is
// free, and adding, removing or renaming a row means regenerating the
// committed baseline.
func runSnapshot(minDur time.Duration, seed int64, quick bool) Snapshot {
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

	// One antenna's noise: a one-antenna frame with no returns, so the op
	// is the base draw, one reseed of the antenna's noise stream and the
	// 1,024 normals of its 512-sample row.
	noiseParams := params
	noiseParams.NumAntennas = 1
	noisePool := fmcw.NewFramePool(noiseParams)
	nplan := fmcw.PlanSynth(noiseParams)
	noiseS := measure(minDur, func() {
		f := noisePool.Get(0)
		if err := nplan.SynthesizeInto(ctx, f, nil, rng, 1); err != nil {
			fatal("synthesize-noise", err)
		}
		noisePool.Put(f)
	})
	add("noise_row_512", 1, noiseS, true)

	// Single 512-point FFT, cached plan (steady state of the radar
	// pipeline), in place over a copy. Allocation-free once the plan is
	// cached.
	x := synthSignal(512, seed)
	buf := make([]complex128, len(x))
	fft := measure(minDur, func() {
		copy(buf, x)
		dsp.FFTInPlace(buf)
	})
	add("fft_512_cached_plan", 1, fft, true)

	// Plan construction cost, for the record: transform a size the process
	// has never seen, forcing a cold plan build, vs the warm transform.
	// (Each iteration uses a fresh odd size, so every call builds a plan.)
	coldSize := 1031
	cold := measure(minDur/4, func() {
		dsp.FFTInPlace(synthSignal(coldSize, seed))
		coldSize += 2
	})
	add("fft_cold_plan_build_~1k", 1, cold, false)

	// Pooled hot-path kernels, one row per stage of the steady-state frame
	// path: background subtraction through a pooled Differencer, the
	// range-FFT + beamform kernel into a reused Profile, peak extraction
	// from that profile, and the Doppler burst kernel into a reused map.
	// All four are single-worker pooled steady states — the allocation
	// count must be exactly zero.
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

	// Peak extraction on that profile: threshold from the row maxima, the
	// row-pruned 3×3 local-max scan, sub-bin refinement, into a reused
	// detection slice.
	array := fmcw.Array{Facing: 1}
	var dets []radar.Detection
	detS := measure(minDur, func() { dets = plan.DetectInto(dets, prof, array) })
	add("detect_plan_pooled", 1, detS, true)

	rows := make([][]complex128, 8) // antenna 0 of each chirp
	for i := range rows {
		rows[i] = synthFrame(ctx, params, returns, float64(i)/params.FrameRate, rng, 1).Data[0]
	}
	var rdMap radar.RangeDopplerMap
	rdS := measure(minDur, func() {
		if err := plan.RangeDopplerInto(ctx, &rdMap, rows, params, 1/params.FrameRate); err != nil {
			fatal("range-doppler-into", err)
		}
	})
	add("doppler_win8_specialized", 1, rdS, true)

	// The pipeline's own per-frame machinery — source pull, Item reset,
	// stage dispatch, recycle — over a replayed frame and a counting no-op
	// stage, so nothing but the machinery itself runs. One warm-up run
	// sizes the reused Item; after that a 16-frame Run must allocate
	// exactly nothing.
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

	// Sliding-window Doppler: steady-state per-frame cost of the K-frame
	// ring-buffer range–Doppler recompute (slow-time FFT over 8 frames of
	// 512-sample chirps, every range bin), through the pooled stage — map
	// from a DopplerPool, recycled per frame — so the row is a
	// single-worker pooled steady state and its allocation count gates
	// exactly like the other Into rows.
	dop := measure(minDur, dopplerStageRun(ctx, seed))
	add("doppler_stage_win8_per_frame", 1, dop, true)

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
