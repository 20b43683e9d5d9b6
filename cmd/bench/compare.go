package main

import (
	"fmt"
	"math"
	"sort"
)

// This file is the -baseline regression gate. Rows are matched by key —
// the name for result rows, the (name, frames) pair for streaming rows —
// so row order is free. The worker column is machine-dependent (rows
// measured at GOMAXPROCS workers carry whatever width the baseline machine
// had), so it is not part of the key; runSnapshot gives the one-worker and
// all-worker variants of a measurement distinct names instead. A row
// present on only one side means the harness and the committed baseline
// disagree, and the fix is to regenerate the baseline, not to loosen the
// gate.
//
// Two checks per row:
//
//   - ns/op (ns/frame for streaming rows) may grow up to maxNsRatio times
//     the baseline. The ratio is deliberately generous — CI machines are
//     noisy and slower than the machine that wrote the baseline — so the
//     timing gate only catches order-of-magnitude cliffs.
//   - allocs/op is compared exactly (after rounding) when BOTH rows are
//     marked AllocsExact and single-worker. Those rows are pooled steady
//     states whose allocation count is deterministic, so even one new
//     allocation per op is a real regression no matter how fast the
//     machine is.

// speedupFloors gates deliberate algorithmic wins: the named Speedups
// entries of the RUN (not the baseline) must stay at or above their floor.
// Both sides of each ratio are measured in the same run on the same
// machine, so unlike the ns/op gate no cross-machine tolerance is needed —
// a floor violation means the optimization itself regressed. synth_plan is
// the compiled-synthesis contract: the planned kernel (rotation tables +
// scaled complex MAC, see fmcw.SynthPlan) must stay >= 2x the retained
// legacy kernel on the identical workload.
var speedupFloors = map[string]float64{
	"synth_plan": 2.0,
}

// baselineStreamLens extracts the capture lengths the baseline's streaming
// section was measured at, in first-appearance order, so a gating run can
// reproduce the same rows.
func baselineStreamLens(base *Snapshot) []int {
	var lens []int
	seen := make(map[int]bool)
	for _, s := range base.Streaming {
		if !seen[s.Frames] {
			seen[s.Frames] = true
			lens = append(lens, s.Frames)
		}
	}
	return lens
}

// allocsComparable reports whether a result row pair is subject to the
// exact allocation gate.
func allocsComparable(b, r Result) bool {
	return b.AllocsExact && r.AllocsExact && b.Workers <= 1 && r.Workers <= 1
}

// compareSnapshots checks run against base and returns one human-readable
// message per regression; an empty slice means the gate passes.
func compareSnapshots(base, run *Snapshot, maxNsRatio float64) []string {
	if base.Schema != run.Schema {
		return []string{fmt.Sprintf("schema mismatch: baseline %d, run %d", base.Schema, run.Schema)}
	}
	baseResults, fails := matchRows("result rows", base.Results, run.Results, func(r Result) string { return r.Name })
	for _, r := range run.Results {
		b, ok := baseResults[r.Name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*maxNsRatio {
			fails = append(fails, fmt.Sprintf("%s (workers=%d): %.0f ns/op exceeds baseline %.0f × %.1f",
				r.Name, r.Workers, r.NsPerOp, b.NsPerOp, maxNsRatio))
		}
		if allocsComparable(b, r) && math.Round(r.AllocsPerOp) > math.Round(b.AllocsPerOp) {
			fails = append(fails, fmt.Sprintf("%s (workers=%d): %.0f allocs/op, baseline %.0f — an allocation crept into a pooled steady state",
				r.Name, r.Workers, math.Round(r.AllocsPerOp), math.Round(b.AllocsPerOp)))
		}
	}
	streamKey := func(s StreamResult) string { return fmt.Sprintf("%s/%d", s.Name, s.Frames) }
	baseStreams, streamFails := matchRows("streaming rows", base.Streaming, run.Streaming, streamKey)
	fails = append(fails, streamFails...)
	for _, r := range run.Streaming {
		b, ok := baseStreams[streamKey(r)]
		if !ok {
			continue
		}
		if b.NsPerFrame > 0 && r.NsPerFrame > b.NsPerFrame*maxNsRatio {
			fails = append(fails, fmt.Sprintf("%s (%d frames): %.0f ns/frame exceeds baseline %.0f × %.1f",
				r.Name, r.Frames, r.NsPerFrame, b.NsPerFrame, maxNsRatio))
		}
	}
	floors := make([]string, 0, len(speedupFloors))
	for name := range speedupFloors {
		floors = append(floors, name)
	}
	sort.Strings(floors)
	for _, name := range floors {
		floor := speedupFloors[name]
		got, ok := run.Speedups[name]
		if !ok {
			fails = append(fails, fmt.Sprintf("speedup %q missing from the run — the harness no longer measures a gated ratio", name))
			continue
		}
		if got < floor {
			fails = append(fails, fmt.Sprintf("speedup %s: %.2fx is below the %.1fx floor", name, got, floor))
		}
	}
	return fails
}

// matchRows indexes the baseline's rows by key and reports as failures what
// the key matching cannot gate: a key that appears twice on one side, and
// the keys present on only one side (gathered into one message).
func matchRows[T any](what string, base, run []T, key func(T) string) (baseRows map[string]T, fails []string) {
	index := func(side string, rows []T) map[string]T {
		m := make(map[string]T, len(rows))
		for _, r := range rows {
			k := key(r)
			if _, dup := m[k]; dup {
				fails = append(fails, fmt.Sprintf("%s: %s appears twice in the %s — row keys must be unique", what, k, side))
			}
			m[k] = r
		}
		return m
	}
	baseRows, runRows := index("baseline", base), index("run", run)
	var missing, extra []string
	for k := range baseRows {
		if _, ok := runRows[k]; !ok {
			missing = append(missing, k)
		}
	}
	for k := range runRows {
		if _, ok := baseRows[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		fails = append(fails, fmt.Sprintf("%s differ: missing from the run %v, not in the baseline %v — regenerate the baseline with `make bench`",
			what, missing, extra))
	}
	return baseRows, fails
}
