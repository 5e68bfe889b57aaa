GO ?= go

.PHONY: check build test cpu1 cpu2 race vet fmt lint api staticadv serve-smoke fuzz-smoke bench cover

# check is the tier-1 verify gate (see ROADMAP.md): static checks, the
# invariant linter suite, the static kernel advisor gate, the public API
# surface lock, the full test suite, the byte-identity tests again on one
# CPU and on two, the race-enabled run that guards pipelined ingest and
# the engine's concurrent runs, and the drgpum-serve smoke round-trip.
# Steps run in cheapest-first order and fail fast; each announces itself
# so CI logs show exactly where a red run stopped.
check: vet fmt build lint staticadv api test cpu1 cpu2 race serve-smoke
	@echo "== check: all gates passed =="

build:
	@echo "== build =="
	$(GO) build ./...

test:
	@echo "== test =="
	$(GO) test ./...

# cpu1 reruns the determinism and stats byte-identity tests at GOMAXPROCS
# 1, where core.Attach delivers every access batch inline and the device
# charges the cost model inline: with a second core it pipelines every
# profiled run, object level included, and completes launches
# asynchronously once the consumer runs, so the full suite on a multi-core
# host never takes the synchronous default. cpu2 is the converse: it
# reruns those tests and the asynchronous-completion tests at GOMAXPROCS
# 2, so a one-CPU runner still covers pipelined ingest and asynchronous
# completion. The environment variable reaches the CLI processes the
# clitest package starts; -cpu sets the test binaries.
cpu1:
	@echo "== cpu1 (GOMAXPROCS 1: synchronous ingest) =="
	GOMAXPROCS=1 $(GO) test -cpu 1 -run 'Determinism|SnapshotThenFinish|StatsFlag' ./internal/core ./internal/obs ./internal/clitest

cpu2:
	@echo "== cpu2 (GOMAXPROCS 2: pipelined ingest, asynchronous completion) =="
	GOMAXPROCS=2 $(GO) test -cpu 2 -run 'Determinism|SnapshotThenFinish|StatsFlag|Async|ConsumerPanic|QueuedLaunch' ./internal/gpu ./internal/core ./internal/obs ./internal/clitest

race:
	@echo "== race =="
	$(GO) test -race ./...

vet:
	@echo "== vet =="
	$(GO) vet ./...

fmt:
	@echo "== fmt =="
	@out="$$(gofmt -s -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

# lint runs the drgpum invariant analyzers (mapiter, hookreentry,
# sharedwrite, simerr) over the whole module. See cmd/drgpum-lint and
# DESIGN.md "Mechanized invariants".
lint:
	@echo "== lint =="
	$(GO) run ./cmd/drgpum-lint ./...

# staticadv runs the static kernel advisor (DESIGN.md "Static kernel
# advisor") twice: a zero-finding sweep over the annotated examples tree,
# then the per-workload sweep + stride report + cross-validation gate
# (>=80% naive agreement with the dynamic Table 1, zero static-only
# findings on optimized variants). The second invocation runs all three
# suites in ONE process on purpose: the internal/lint loader cache hands
# them the same loaded workloads package, and -loadstats prints the
# measured saving (~100ms of go list -export + typecheck avoided per
# extra suite on a warm build cache — about half the step's load cost).
staticadv:
	@echo "== staticadv (examples sweep + workload xval gate; one export-data load serves sweep+stride+xval) =="
	$(GO) run ./cmd/drgpum-staticadv ./examples/...
	$(GO) run ./cmd/drgpum-staticadv -workloads -stride -xval -gate -loadstats > STATICADV.txt
	@tail -n 4 STATICADV.txt

# api diffs the exported surface of the public packages against the
# api/drgpum.txt lock. Regenerate deliberately with:
#   $(GO) run ./cmd/drgpum-api -write
api:
	@echo "== api =="
	$(GO) run ./cmd/drgpum-api -check

# serve-smoke boots the drgpum-serve daemon on a loopback port, drives
# one profiling session end to end through its own HTTP API (submit →
# poll → report → metrics), then shuts it down gracefully — the cheapest
# whole-binary proof that the serving path works.
serve-smoke:
	@echo "== serve-smoke =="
	$(GO) run ./cmd/drgpum-serve -smoke

# fuzz-smoke runs every native fuzz target for 10s past its seed corpus,
# which `make test` already replays. It stays out of check: fuzzing is
# open-ended, and an input it finds belongs in the target's
# testdata/fuzz corpus, not in a gate that passes or fails by luck.
fuzz-smoke:
	@echo "== fuzz-smoke =="
	$(GO) test -run '^$$' -fuzz '^FuzzBitmapRange$$' -fuzztime 10s ./internal/intraobj
	$(GO) test -run '^$$' -fuzz '^FuzzSummaryMatchesReference$$' -fuzztime 10s ./internal/intraobj
	$(GO) test -run '^$$' -fuzz '^FuzzTrackerMatchesReference$$' -fuzztime 10s ./internal/costmodel
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzSessionID$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSessionRoute$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitBody$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzMarginalSavings$$' -fuzztime 10s ./internal/advisor
	$(GO) test -run '^$$' -fuzz '^FuzzIncrementalMatchesReference$$' -fuzztime 10s ./internal/depgraph
	$(GO) test -run '^$$' -fuzz '^FuzzResolveMatchesReference$$' -fuzztime 10s ./internal/gpu

bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# cover runs the test suite with coverage of every package (not just the
# one under test) and prints the per-function summary. cover.out is
# .gitignored; open it with `go tool cover -html=cover.out`.
cover:
	@echo "== cover =="
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | tail -n 1
