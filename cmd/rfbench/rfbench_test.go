package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the repository's benchmark description.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloads runs every workload briefly, untraced and traced, through
// the command's entry point: the checks pass, the printed metrics are
// exactly BENCHMARK.json's with its units, and the traced pass writes a
// parseable trace whose spans explain the frame time.
func TestWorkloads(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.json")
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.name, "-seed", "1", "-seconds", "1", "-trace", trace, "-spans", spans}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if trace == "1" {
					checkTrace(t, spans, res)
				}
			})
		}
	}
}

func checkTrace(t *testing.T, path string, res result) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	frames := 0
	for _, e := range tr.TraceEvents {
		if e.Name == "pipeline.frame" {
			frames++
		}
	}
	if frames == 0 {
		t.Fatalf("trace has %d events and no frame spans", len(tr.TraceEvents))
	}
	if s := res.Metrics["pipeline.unaccounted_share"].Value; s > 0.05 {
		t.Errorf("unaccounted share %.3f above 0.05", s)
	}
}

// TestStreamLongLines feeds the stream reader event lines longer than its
// buffer, the final one split a few bytes before its end: every event is
// counted once and the final line is recognised.
func TestStreamLongLines(t *testing.T) {
	line := func(frame int, final bool, size int) string {
		head, end := fmt.Sprintf(`{"room":"r","frame":%d,"pad":"`, frame), `"}`
		if final {
			end = `","final":true}`
		}
		return head + strings.Repeat("a", size-len(head)-len(end)-1) + end + "\n"
	}
	body := line(0, false, 100) + line(1, false, 70000) + line(1, true, 64<<10+5)
	c := &clock{epoch: time.Now()}
	st := newStream("r", 4, newProgress(c))
	if err := st.consume(strings.NewReader(body), c); err != nil {
		t.Fatal(err)
	}
	if st.events != 2 || st.unordered || st.gaps != 0 || !st.final || st.finalAt != 1 {
		t.Fatalf("events %d, unordered %v, gaps %d, final %v at %d", st.events, st.unordered, st.gaps, st.final, st.finalAt)
	}
}

// TestPerFrameHelpersAllocateNothing pins the harness's per-frame work at
// zero allocations, so the load generator's own cost stays flat.
func TestPerFrameHelpersAllocateNothing(t *testing.T) {
	st := newStream("r", 1024, newProgress(&clock{epoch: time.Now()}))
	k := 0
	if n := testing.AllocsPerRun(100, func() {
		st.record(k, int64(k))
		k++
	}); n != 0 {
		t.Errorf("recording a timestamp: %v allocs", n)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = patchTime(buf, ingestTime(12345)) }); n != 0 {
		t.Errorf("patching the time prefix: %v allocs", n)
	}
	line := []byte(`{"room":"ingest-0","frame":4711,"time":235.55,"tracks":[]}` + "\n")
	if n := testing.AllocsPerRun(100, func() {
		if f, ok := parseFrame(line); !ok || f != 4711 {
			t.Fatalf("parseFrame = %d, %v", f, ok)
		}
	}); n != 0 {
		t.Errorf("parsing the frame index: %v allocs", n)
	}
	tail := make([]byte, 0, 2*len(finalSuffix))
	if n := testing.AllocsPerRun(100, func() { tail = keepTail(tail, line, len(finalSuffix)) }); n != 0 {
		t.Errorf("keeping a line's tail: %v allocs", n)
	}
}
