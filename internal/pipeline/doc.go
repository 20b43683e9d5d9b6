// Package pipeline runs the scene→fmcw→radar→tracker chain as a streaming
// pipeline: a Source emits one *fmcw.Frame at a time and a chain of
// composable Stages processes each frame before the next is synthesized, so
// a capture of any length runs with O(1) frames in flight (plus the one
// frame of background-subtraction history inside the subtract stage). A
// context.Context threads through the source and every stage, so a capture
// can be canceled or timed out mid-stream; every run takes a real one
// (context.Background() where nothing cancels).
//
// There is one way to build the eavesdropper front end:
// FrontEndStagesPlanned(plan, array, pools), plus NewDopplerPlanned for the
// sliding-window range–Doppler stage. Every kernel runs through a shared
// radar.FrontEndPlan and every buffer comes from Pools. The contract with
// the batch path is strict equivalence: for the same scene, seed, and
// configuration, streaming a capture frame by frame produces bit-identical
// frames, profiles, detections, tracks, and breathing-phase series to
// Scene.CaptureCtx + FrontEndPlan.ProcessFrames + radar.TrackDetections +
// BreathingExtractor.PhaseSeries, with or without Pipeline.UsePools. The
// golden equivalence tests in this package enforce it. DESIGN.md
// ("Streaming pipeline") documents the stage graph and cancellation
// semantics.
//
// # Execution
//
// Run drives the chain on the caller's goroutine, one frame at a time:
// every stage finishes frame i before the source is asked for frame i+1.
// Parallelism lives inside the stages' kernels (parallel.ForEachCtx over
// antennas and range bins), not between stages.
//
// # Steady-state allocation
//
// With the source drawing from the same pools (scene.FrameStream.UsePool)
// and Pipeline.UsePools, every buffer (frames, diffs, profiles, detection
// slices, Doppler maps) is recycled, and the pipeline resets one Item per
// frame instead of allocating one, so the steady-state frame path of Run
// allocates exactly nothing (enforced by an AllocsPerRun test). Buffer ownership follows DESIGN.md "Buffer ownership
// & pooling": the pipeline recycles at the sink, error-path buffers fall to
// the GC, and collectors copy what they keep. Without UsePools the same
// stages still work; their pools are never refilled, so each buffer is a
// fresh allocation.
//
// A typical assembly:
//
//	plan := radar.CompileFrontEndPlan(radar.DefaultConfig(), sc.Params)
//	pools := pipeline.NewPools(sc.Params)
//	trk := pipeline.NewTrack(radar.TrackerConfig{})
//	stages := append(pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools), trk)
//	src := sc.Stream(0, nFrames, rng).UsePool(pools.Frames)
//	p := pipeline.New(src, stages...).UsePools(pools)
//	if _, err := p.Run(ctx); err != nil { ... }
//	tracks := trk.Tracks()
package pipeline
