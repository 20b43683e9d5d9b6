package main

import (
	"strings"
	"testing"
)

// snap builds a minimal schema-2 snapshot for exercising the gate. Every
// gated speedup is present at its floor so the floor check stays quiet in
// tests that exercise the other gates.
func snap(results []Result, streams []StreamResult) *Snapshot {
	speedups := make(map[string]float64, len(speedupFloors))
	for name, floor := range speedupFloors {
		speedups[name] = floor
	}
	return &Snapshot{Schema: snapshotSchema, Results: results, Streaming: streams, Speedups: speedups}
}

func TestCompareSnapshotsPassesWithinTolerance(t *testing.T) {
	base := snap(
		[]Result{
			{Name: "a", Workers: 1, NsPerOp: 1000, AllocsPerOp: 0, AllocsExact: true},
			{Name: "b", Workers: 4, NsPerOp: 500, AllocsPerOp: 12.3},
		},
		[]StreamResult{{Name: "s", Frames: 64, NsPerFrame: 1e6, AllocsPerFrame: 40}},
	)
	run := snap(
		[]Result{
			// Faster, still zero allocs: fine.
			{Name: "a", Workers: 1, NsPerOp: 900, AllocsPerOp: 0.004, AllocsExact: true},
			// 3.9x slower and more allocs, but neither gated (ratio 4, not
			// exact): fine.
			{Name: "b", Workers: 2, NsPerOp: 1950, AllocsPerOp: 80},
		},
		[]StreamResult{{Name: "s", Frames: 64, NsPerFrame: 3.9e6, AllocsPerFrame: 400}},
	)
	if fails := compareSnapshots(base, run, 4); len(fails) != 0 {
		t.Fatalf("want pass, got failures: %v", fails)
	}
}

func TestCompareSnapshotsNsRegression(t *testing.T) {
	base := snap([]Result{{Name: "a", Workers: 1, NsPerOp: 1000}}, nil)
	run := snap([]Result{{Name: "a", Workers: 1, NsPerOp: 4100}}, nil)
	fails := compareSnapshots(base, run, 4)
	if len(fails) != 1 || !strings.Contains(fails[0], "ns/op") {
		t.Fatalf("want one ns/op failure, got %v", fails)
	}
}

func TestCompareSnapshotsStreamNsRegression(t *testing.T) {
	base := snap(nil, []StreamResult{{Name: "s", Frames: 64, NsPerFrame: 1e6}})
	run := snap(nil, []StreamResult{{Name: "s", Frames: 64, NsPerFrame: 5e6}})
	fails := compareSnapshots(base, run, 4)
	if len(fails) != 1 || !strings.Contains(fails[0], "ns/frame") {
		t.Fatalf("want one ns/frame failure, got %v", fails)
	}
}

func TestCompareSnapshotsAllocRegression(t *testing.T) {
	base := snap([]Result{{Name: "a", Workers: 1, NsPerOp: 1000, AllocsPerOp: 0, AllocsExact: true}}, nil)
	run := snap([]Result{{Name: "a", Workers: 1, NsPerOp: 1000, AllocsPerOp: 1.02, AllocsExact: true}}, nil)
	fails := compareSnapshots(base, run, 4)
	if len(fails) != 1 || !strings.Contains(fails[0], "allocs/op") {
		t.Fatalf("want one allocs/op failure, got %v", fails)
	}
	// Sub-half-allocation jitter (a stray GC repopulating a sync.Pool)
	// rounds away instead of flaking the gate.
	run.Results[0].AllocsPerOp = 0.4
	if fails := compareSnapshots(base, run, 4); len(fails) != 0 {
		t.Fatalf("0.4 allocs/op should round to baseline 0, got %v", fails)
	}
}

func TestCompareSnapshotsAllocGateNeedsExactRows(t *testing.T) {
	// Either side not exact, or a multi-worker row: allocations are
	// informational only.
	for _, tc := range []struct {
		be, re bool
		bw, rw int
	}{
		{be: false, re: true, bw: 1, rw: 1},
		{be: true, re: false, bw: 1, rw: 1},
		{be: true, re: true, bw: 4, rw: 4},
	} {
		base := snap([]Result{{Name: "a", Workers: tc.bw, NsPerOp: 1000, AllocsPerOp: 0, AllocsExact: tc.be}}, nil)
		run := snap([]Result{{Name: "a", Workers: tc.rw, NsPerOp: 1000, AllocsPerOp: 50, AllocsExact: tc.re}}, nil)
		if fails := compareSnapshots(base, run, 4); len(fails) != 0 {
			t.Fatalf("case %+v: want no failures, got %v", tc, fails)
		}
	}
}

func TestCompareSnapshotsRowMismatch(t *testing.T) {
	base := snap([]Result{{Name: "a"}, {Name: "b"}}, nil)
	run := snap([]Result{{Name: "a"}, {Name: "c"}}, nil)
	fails := compareSnapshots(base, run, 4)
	if len(fails) != 1 || !strings.Contains(fails[0], "regenerate") {
		t.Fatalf("want one name-mismatch failure, got %v", fails)
	}

	run = snap([]Result{{Name: "a"}}, nil)
	fails = compareSnapshots(base, run, 4)
	if len(fails) != 1 || !strings.Contains(fails[0], "result rows") {
		t.Fatalf("want one row-count failure, got %v", fails)
	}
}

// TestCompareSnapshotsReorderedBaseline: rows are matched by key, not by
// position, so a baseline listing the same rows in another order passes —
// and the gates still apply to the matching row.
func TestCompareSnapshotsReorderedBaseline(t *testing.T) {
	base := snap(
		[]Result{{Name: "a", Workers: 1, NsPerOp: 1000}, {Name: "b", Workers: 1, NsPerOp: 10}},
		[]StreamResult{{Name: "s", Frames: 64, NsPerFrame: 1e6}, {Name: "s", Frames: 256, NsPerFrame: 2e6}},
	)
	run := snap(
		[]Result{{Name: "b", Workers: 1, NsPerOp: 11}, {Name: "a", Workers: 1, NsPerOp: 1100}},
		[]StreamResult{{Name: "s", Frames: 256, NsPerFrame: 2e6}, {Name: "s", Frames: 64, NsPerFrame: 1e6}},
	)
	if fails := compareSnapshots(base, run, 4); len(fails) != 0 {
		t.Fatalf("reordered rows should pass, got %v", fails)
	}
	// "b" 10 -> 50 ns/op is gated against "b", wherever it sits.
	run.Results[0].NsPerOp = 50
	fails := compareSnapshots(base, run, 4)
	if len(fails) != 1 || !strings.Contains(fails[0], "b (workers=1)") {
		t.Fatalf("want one ns/op failure on row b, got %v", fails)
	}
}

// TestCompareSnapshotsMissingOrExtraRow: a row on only one side fails,
// for result rows and for streaming rows (keyed by name and frames), and so
// does a key that appears twice.
func TestCompareSnapshotsMissingOrExtraRow(t *testing.T) {
	base := snap([]Result{{Name: "a"}, {Name: "b"}}, []StreamResult{{Name: "s", Frames: 64}})
	for _, tc := range []struct {
		name    string
		results []Result
		streams []StreamResult
		want    string
	}{
		{"missing result", []Result{{Name: "b"}}, []StreamResult{{Name: "s", Frames: 64}}, "missing from the run [a]"},
		{"extra result", []Result{{Name: "b"}, {Name: "a"}, {Name: "c"}}, []StreamResult{{Name: "s", Frames: 64}}, "not in the baseline [c]"},
		{"missing stream", []Result{{Name: "a"}, {Name: "b"}}, nil, "missing from the run [s/64]"},
		{"stream frames differ", []Result{{Name: "a"}, {Name: "b"}}, []StreamResult{{Name: "s", Frames: 12}}, "not in the baseline [s/12]"},
		{"duplicate result", []Result{{Name: "a"}, {Name: "b"}, {Name: "b"}}, []StreamResult{{Name: "s", Frames: 64}}, "appears twice in the run"},
	} {
		fails := compareSnapshots(base, snap(tc.results, tc.streams), 4)
		if len(fails) != 1 || !strings.Contains(fails[0], tc.want) {
			t.Fatalf("%s: want one failure containing %q, got %v", tc.name, tc.want, fails)
		}
	}
}

func TestCompareSnapshotsSpeedupFloor(t *testing.T) {
	base := snap(nil, nil)
	run := snap(nil, nil)
	// At the floor exactly: passes.
	if fails := compareSnapshots(base, run, 4); len(fails) != 0 {
		t.Fatalf("at-floor speedups should pass, got %v", fails)
	}
	// Below the floor: one failure naming the ratio. The RUN side is
	// gated — the baseline's recorded speedup is irrelevant.
	run.Speedups["synth_plan"] = 1.7
	fails := compareSnapshots(base, run, 4)
	if len(fails) != 1 || !strings.Contains(fails[0], "below the") {
		t.Fatalf("want one below-floor failure, got %v", fails)
	}
	// Missing entirely: the harness stopped measuring a gated ratio.
	delete(run.Speedups, "synth_plan")
	fails = compareSnapshots(base, run, 4)
	if len(fails) != 1 || !strings.Contains(fails[0], "missing") {
		t.Fatalf("want one missing-speedup failure, got %v", fails)
	}
}

func TestCompareSnapshotsSchemaMismatch(t *testing.T) {
	base := &Snapshot{Schema: 1}
	run := &Snapshot{Schema: snapshotSchema}
	fails := compareSnapshots(base, run, 4)
	if len(fails) != 1 || !strings.Contains(fails[0], "schema") {
		t.Fatalf("want one schema failure, got %v", fails)
	}
}

func TestBaselineStreamLens(t *testing.T) {
	base := snap(nil, []StreamResult{
		{Name: "s", Frames: 64}, {Name: "c", Frames: 64}, {Name: "b", Frames: 64},
		{Name: "s", Frames: 256}, {Name: "c", Frames: 256}, {Name: "b", Frames: 256},
	})
	got := baselineStreamLens(base)
	if len(got) != 2 || got[0] != 64 || got[1] != 256 {
		t.Fatalf("baselineStreamLens = %v, want [64 256]", got)
	}
}
