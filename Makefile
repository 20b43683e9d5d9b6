GO ?= go

# Coverage floor (percent of statements) enforced by `make cover` on the
# packages whose correctness rests on their test harness: the concurrent
# scheduler, the worker pool and the FFT batch layer under it, the scene
# capture paths, and the spoof-detection suite.
COVER_MIN ?= 80
COVER_PKGS ?= ./internal/pipeline ./internal/parallel ./internal/dsp ./internal/scene ./internal/detect

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
# compiler invocation — the escape-analysis gate lives in lint-deep.
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
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

# Regenerate the tracked performance snapshot (schema v2: ns/op plus
# allocs/op and bytes/op per row). Run this after any deliberate
# performance change so benchdiff gates against the new reality.
bench:
	$(GO) run ./cmd/bench -out BENCH_pipeline.json

bench-json: bench

# The go-test benchmark suite (paper figures + pipeline micro-benches).
bench-go:
	$(GO) test -bench=Pipeline -benchmem -run='^$$' .
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/fmcw ./internal/dsp

# Allocation/throughput regression gate: re-measure with short windows and
# compare against the committed snapshot. ns/op gets a generous 4x ratio so
# slow CI machines don't flake; allocs/op on the pooled single-worker rows
# (allocs_exact) is compared exactly — one new allocation on the hot path
# fails the build.
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

# Bounded fuzz exploration of the stage-composition state space and the
# spoof-detector input space; the seed corpora alone run on every plain
# `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzStageComposition -fuzztime 10s ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzDetect -fuzztime 10s ./internal/detect

# Daemon smoke: build rfprotectd, then drive the full lifecycle under the
# race detector — 8 concurrent rooms × 64 frames whose exported tracks are
# bit-identical to the library path, an ingest drain that loses no accepted
# frame, and start → SIGTERM → drain → clean exit with zero leaked
# goroutines.
daemon-smoke:
	$(GO) build -o /dev/null ./cmd/rfprotectd
	$(GO) test -race -count=1 \
		-run 'TestSmokeConcurrentRoomsBitIdentical|TestIngestDrainNoFrameLoss|TestDaemonSIGTERMDrain' \
		./internal/service ./cmd/rfprotectd

# The end-to-end benchmark harness is a module of its own (cmd/rfbench/go.mod,
# replacing rfprotect with the checkout), so the ./... patterns above never
# build or test it. It compiles against the pipeline, radar and service
# APIs, so an API change must keep it green: vet it and run its tests,
# including the traced mirror-vs-daemon bit-identity check.
rfbench-check:
	cd cmd/rfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

ci: lint-deep build race cover fuzz benchdiff daemon-smoke rfbench-check
