GO ?= go

# Coverage floor (percent of statements) enforced by `make cover` on the
# packages whose correctness rests on their test harness: the pipeline's
# stage runner, the worker pool, the FFT kernels and their shared plans, the
# frame synthesis and radar front-end kernels with their pools and plans, the
# scene capture paths, the spoof-detection suite, and the daemon's service
# layer with its ingest decoder.
COVER_MIN ?= 80
COVER_PKGS ?= ./internal/pipeline ./internal/parallel ./internal/dsp ./internal/fmcw ./internal/radar ./internal/scene ./internal/detect ./internal/service

.PHONY: build vet lint lint-deep test race short bench bench-go bench-json benchdiff cover fuzz daemon-smoke rfbench-check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting + static-analysis gate: fails when any file needs gofmt, go
# vet reports a problem, or the repo-specific invariant suite (cmd/rfvet:
# seedsplit, ctxflow, goroleak, wallclock, poolcheck, lockorder, saturate —
# see DESIGN.md "Static analysis") finds a violation. Every //rfvet:allow
# must carry a `-- justification`. (Plain stdlib tooling — no external
# linters; rfvet is built from this repo.) Fast: AST/type analysis only, no
# compiler invocation — the escape-analysis gate lives in lint-deep. The
# second vet type-checks the tree as arm64, so the !amd64 fallbacks
# (beam_other.go, synth_other.go) and their tests compile on an amd64 host.
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	$(GO) run ./cmd/rfvet -require-justification ./...

# lint plus the allocfree pass: rebuild with -gcflags=-m and fail if any
# //rfvet:allocfree-annotated hot path has a heap-escape diagnostic. Slower
# than lint (it runs the compiler), so it is its own target; ci runs it.
lint-deep: lint
	$(GO) run ./cmd/rfvet -require-justification -allocfree ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# The concurrency in internal/parallel, internal/fmcw, internal/dsp,
# internal/radar and internal/experiments must stay race-clean; run this
# before every change that touches a worker pool.
race:
	$(GO) test -race -timeout 45m ./...

# Regenerate the tracked kernel-gate snapshot (schema v2: ns/op plus
# allocs/op and bytes/op per kernel row; end-to-end numbers are
# cmd/rfbench's). Run this after any deliberate performance change so
# benchdiff gates against the new reality.
bench:
	$(GO) run ./cmd/bench -out BENCH_pipeline.json

bench-json: bench

# The go-test pipeline micro-benches (frame synthesis, range FFT, streaming
# capture+track and cancellation, Doppler stage) plus the fmcw and dsp
# kernel benches.
bench-go:
	$(GO) test -bench='Pipeline|Streaming|Doppler' -benchmem -run='^$$' .
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/fmcw ./internal/dsp

# Kernel regression gate: re-measure the kernel rows with short windows and
# compare against the committed snapshot. ns/op gets a generous 4x ratio so
# slow CI machines don't flake; allocs/op on the pooled single-worker rows
# (allocs_exact) is compared exactly — one new allocation on the hot path
# fails the build — and the intra-run synth_plan speedup must stay >= 2.0.
benchdiff:
	$(GO) run ./cmd/bench -quick -baseline BENCH_pipeline.json

# Per-package statement coverage with a hard floor: each package in
# COVER_PKGS must individually clear COVER_MIN%. A failing test run prints
# its full go test output so CI coverage failures are diagnosable from the
# log instead of dying behind a swallowed redirect.
cover:
	@for pkg in $(COVER_PKGS); do \
		out=$$($(GO) test -coverprofile=cover.out $$pkg 2>&1) || { \
			echo "$$out"; echo "cover: go test failed in $$pkg"; exit 1; }; \
		pct=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		rm -f cover.out; \
		echo "$$pkg coverage: $$pct% (floor $(COVER_MIN)%)"; \
		ok=$$(awk -v p="$$pct" -v m="$(COVER_MIN)" 'BEGIN {print (p+0 >= m+0) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "coverage below floor for $$pkg"; exit 1; fi; \
	done

# Bounded fuzz exploration of the stage-composition state space, the
# spoof-detector input space, the scorer's stored verdicts against an
# uncached recompute, the ingest frame decoder against its encoding/json
# oracle, and the row-pruned peak finder against the full scan; the seed
# corpora alone run on every plain `go test`.
# FuzzScoreMemo runs a whole tracker stream per input (about a millisecond),
# so the default 60 s minimization of each new-coverage input would eat the
# whole budget; -fuzzminimizetime caps it.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzStageComposition -fuzztime 10s ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzDetect -fuzztime 10s ./internal/detect
	$(GO) test -run '^$$' -fuzz FuzzScoreMemo -fuzztime 10s -fuzzminimizetime 100x ./internal/detect
	$(GO) test -run '^$$' -fuzz FuzzIngestFrame -fuzztime 10s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzPeakRows -fuzztime 10s ./internal/dsp

# Daemon smoke: build rfprotectd, then drive the full lifecycle under the
# race detector — 8 concurrent rooms × 64 frames whose exported tracks are
# bit-identical to the library path, an ingest drain that loses no accepted
# frame, HTTP-ingested frames whose tracks are bit-identical to pushed ones,
# a stream whose live entries and retirement records rebuild the final
# event's track set bit for bit, a panicking room that fails alone next to
# a healthy one, and start → SIGTERM → drain → clean exit with zero leaked
# goroutines.
daemon-smoke:
	$(GO) build -o /dev/null ./cmd/rfprotectd
	$(GO) test -race -count=1 \
		-run 'TestSmokeConcurrentRoomsBitIdentical|TestIngestDrainNoFrameLoss|TestIngestHTTPBitIdentical|TestStreamRebuildsFinalTracks|TestRoomPanicFailsOnlyItsRoom|TestDaemonSIGTERMDrain' \
		./internal/service ./cmd/rfprotectd

# The end-to-end benchmark harness is a module of its own (cmd/rfbench/go.mod,
# replacing rfprotect with the checkout), so the ./... patterns above never
# build or test it. It compiles against the pipeline, radar and service
# APIs, so an API change must keep it green: vet it and run its tests,
# including the traced mirror-vs-daemon bit-identity check.
rfbench-check:
	cd cmd/rfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

ci: lint-deep build race cover fuzz benchdiff daemon-smoke rfbench-check
