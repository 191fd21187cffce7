# Development targets mirroring .github/workflows/ci.yml.

GO ?= go

# External tool pins: CI and local installs use the same versions, so a
# new staticcheck release cannot break the build unreviewed.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: build test race chaos lint noiselint staticcheck vuln fuzz bench bench-mini bench-report bench-compare server-smoke cluster-smoke path-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent packages (the worker pool, the
# shared caches and the bounded memo that evicts under them, the
# scatter-gather gateway, the path scheduler's workers, ready channel
# and emit lock, and the per-net forks of delaynoise and align on
# internal/spare), then the fork tests (TestFork*) at GOMAXPROCS 1,
# where every part runs inline, and 4, where helpers run them; CI runs
# the same set.
race:
	$(GO) test -race ./internal/align/... ./internal/clarinet/... ./internal/delaynoise/... ./internal/engine/... ./internal/memo/... ./internal/noised/... ./internal/noisegw/... ./internal/pathnoise/... ./internal/spare/...
	$(GO) test -race -cpu 1,4 -run '^TestFork' ./internal/clarinet/ ./internal/delaynoise/ ./internal/spare/

# Fault-injected batch smoke under the race detector: seeded
# convergence failures, one panic, one stalled net, plus the journal
# kill/resume byte-identity check. CHAOS_SEED selects one seed (CI runs
# a 3-seed matrix); CHAOS_JOURNAL_OUT captures the journals.
chaos:
	CHAOS_SEED=$(CHAOS_SEED) CHAOS_JOURNAL_OUT=$(CHAOS_JOURNAL_OUT) \
		$(GO) test -race -run 'TestChaosBatch|TestChaosDuplicateNets|TestResumeByteIdentical' -v ./internal/clarinet/

# The full lint suite over ./...: every noiselint analyzer, go vet,
# and a gofmt check. CI's noiselint job runs the same checker with a
# problem matcher and a build cache keyed on go.sum + the lint sources.
lint: noiselint
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Domain-specific analyzers (see DESIGN.md "Static analysis"): context
# twins, stage-name drift, error-taxonomy wrapping, cache-key purity,
# numeric-kernel float hygiene, recover scoping, goroutine lifecycles
# (goleak), flow-sensitive mutex discipline (lockflow), hot-path
# allocation freedom (//lint:hot + hotalloc), metric-name constants
# (metricflow), and exported internal/ API that only tests use
# (testonly, which reads the uses of the whole module tree, the nested
# cmd/noisebench module included). Dependency-free: the checker is part
# of this module; `-list` enumerates the analyzers, `-json` emits
# findings for tooling.
noiselint:
	$(GO) run ./cmd/noiselint ./...

# Static analysis beyond go vet; CI installs the pinned staticcheck on
# the runner, locally the target degrades to a skip notice when the
# tool is absent.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Known-vulnerability scan. Advisory: CI marks the job
# continue-on-error, and the target never fails the build locally.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || true; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Short fuzz pass over the binary decoders — the colblob frame/column
# readers and the clarinet record decoder all parse untrusted journal
# and wire bytes — over the compacted LU solve, which must match the
# dense solve bit for bit, over linalg.Factor, whose banded Cholesky
# must match the dense LU within a stated tolerance and whose dense
# side must match it bit for bit, over lsim's grouped stepper, whose
# every input set must match its own Run bit for bit, over nlsim's
# two-level device bypass,
# which must match device evaluation bit for bit, over gatesim's
# settled-tail stop, whose crossings, fits and horizons must match the
# full runs bit for bit, and over align's climbing alignment search,
# which must match the whole-grid search bit for bit. Go runs one -fuzz
# pattern per invocation, so the target loops; the committed corpus
# under each package's testdata/fuzz seeds every run. FUZZTIME bounds
# each target's budget.
FUZZTIME ?= 30s
COLBLOB_FUZZ = FuzzReadFloats FuzzFrameReader FuzzFloatValues

fuzz:
	@for t in $(COLBLOB_FUZZ); do \
		echo "== $$t"; \
		$(GO) test -run='^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) ./internal/colblob || exit 1; \
	done
	@echo "== FuzzBinaryRecord"
	@$(GO) test -run='^$$' -fuzz='^FuzzBinaryRecord$$' -fuzztime=$(FUZZTIME) ./internal/clarinet
	@echo "== FuzzCompactSolve"
	@$(GO) test -run='^$$' -fuzz='^FuzzCompactSolve$$' -fuzztime=$(FUZZTIME) ./internal/linalg
	@echo "== FuzzFactor"
	@$(GO) test -run='^$$' -fuzz='^FuzzFactor$$' -fuzztime=$(FUZZTIME) ./internal/linalg
	@echo "== FuzzGroup"
	@$(GO) test -run='^$$' -fuzz='^FuzzGroup$$' -fuzztime=$(FUZZTIME) ./internal/lsim
	@echo "== FuzzGateMemo"
	@$(GO) test -run='^$$' -fuzz='^FuzzGateMemo$$' -fuzztime=$(FUZZTIME) ./internal/nlsim
	@echo "== FuzzSettledStop"
	@$(GO) test -run='^$$' -fuzz='^FuzzSettledStop$$' -fuzztime=$(FUZZTIME) ./internal/gatesim
	@echo "== FuzzClimb"
	@$(GO) test -run='^$$' -fuzz='^FuzzClimb$$' -fuzztime=$(FUZZTIME) ./internal/align

# Serving-layer smoke: boots a race-built noised on an ephemeral port,
# drives it with noisectl over a netgen workload, checks the
# warm-session guarantee and graceful drain. Mirrors the CI job.
server-smoke:
	RACE=1 ./scripts/server_smoke.sh

# Cluster smoke: three replicas behind a noisegw gateway, one replica
# SIGKILLed mid-stream; the merged report must be byte-identical to a
# single-replica golden run and the gateway must record a reshard.
# Mirrors the CI job.
cluster-smoke:
	RACE=1 ./scripts/cluster_smoke.sh

# Path smoke: a 5-stage path run is SIGKILLed mid-path and resumed from
# its stage journal; the resumed end-to-end report must be
# byte-identical to an unjournaled golden run. Mirrors the CI job.
path-smoke:
	RACE=1 ./scripts/path_smoke.sh

# One pass over every benchmark; REPRO_METRICS_OUT captures the clarinet
# batch metrics JSON.
bench:
	REPRO_METRICS_OUT=$(CURDIR)/clarinet-metrics.json \
		$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The end-to-end benchmark (cmd/noisebench) is a module of its own, so
# the root build and test skip it; this vets it and runs its tests, all
# four workloads in miniature (~15 s), so an API change that breaks the
# benchmark fails here. Mirrors the CI noisebench-mini job.
bench-mini:
	cd cmd/noisebench && $(GO) vet ./... && $(GO) test ./...

# Benchmark trajectory artifacts (DESIGN.md "Solver kernels & benchmark
# trajectory"): run every benchmark with allocation counting, snapshot
# the parsed numbers as .benchmarks/BENCH_<date>.json, and render
# BENCHMARKS.md with deltas against the committed baseline. BASE
# defaults to the newest snapshot under benchmarks/. The raw output is
# captured to a file first so a benchmark failure is never masked by a
# pipeline (POSIX sh has no pipefail).
BENCH_DATE ?= $(shell date +%F)
BASE ?= $(shell ls benchmarks/BENCH_*.json 2>/dev/null | sort | tail -1)

bench-report:
	@mkdir -p .benchmarks
	REPRO_METRICS_OUT=$(CURDIR)/.benchmarks/clarinet-metrics.json \
		$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./... \
		> .benchmarks/bench.txt 2>&1; \
		st=$$?; cat .benchmarks/bench.txt; [ $$st -eq 0 ]
	$(GO) run ./cmd/benchreport -in .benchmarks/bench.txt -date $(BENCH_DATE) \
		-json .benchmarks/BENCH_$(BENCH_DATE).json \
		$(if $(BASE),-base $(BASE)) -md BENCHMARKS.md

# Regression gate over the last bench-report run: fails when any
# benchmark at or above 1 ms slowed down more than 15% in ns/op against
# the baseline snapshot (override with BASE=<file>).
bench-compare:
	@test -n "$(BASE)" || { echo "bench-compare: no baseline snapshot found; set BASE=<file>"; exit 1; }
	@test -f .benchmarks/bench.txt || { echo "bench-compare: no .benchmarks/bench.txt; run 'make bench-report' first"; exit 1; }
	$(GO) run ./cmd/benchreport -in .benchmarks/bench.txt -base $(BASE) -check
