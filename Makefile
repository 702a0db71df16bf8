GO ?= go

# Pinned external linter versions. The tools are optional — the build
# container has no network, so `make lint` runs them only when the binary
# is already on PATH (CI installs them at exactly these versions).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build vet test race verify fmt-check lint lint-smoke bench bench-link bench-smoke linkbench-smoke trace-smoke pgo-smoke omd-smoke verify-smoke clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The parallel harness, OM's concurrent analysis, the omd service
# (coalescing, queue, drain), the warm-path caches (stage stores,
# resident program cache, shared pass-memo snapshots), the telemetry
# layer (concurrent span recording, registry snapshots, the flight
# recorder ring), and the verification engine must stay race-clean.
race:
	$(GO) test -race ./internal/harness ./internal/om ./internal/omd \
		./internal/link ./internal/buildcache ./internal/obs ./internal/verify \
		./internal/dataflow

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the Go-source linters: go vet, the repo's own nil-tolerant
# receiver convention check over the observability packages, and — when
# installed — staticcheck and govulncheck at the pinned versions above.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/niltolerant ./internal/obs
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck $(STATICCHECK_VERSION) not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck $(GOVULNCHECK_VERSION) not installed; skipping (CI runs it)"; fi

# lint-smoke is the static-analysis gate on the linker's own output: every
# golden matrix cell of two real benchmarks must come back with zero error
# findings from the whole-program dataflow checks, and the fault-injection
# probe must prove the checks still have teeth (a deliberately broken
# pass run must be caught statically, no simulator, no journal).
lint-smoke:
	$(GO) run ./cmd/omlint -matrix -bench li,compress
	$(GO) run ./cmd/omlint -faultcheck

# bench runs the simulator benchmark suite and records it as
# BENCH_sim.json, embedding the pre-engine baseline so one file shows the
# perf trajectory. Commit the refreshed file when touching the simulator.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSim|BenchmarkFig6Dynamic' \
		-benchtime 2x -count 1 . ./internal/sim \
		| $(GO) run ./cmd/benchjson \
			-baseline results/BENCH_sim_baseline_pr1.json -o BENCH_sim.json
	@cat BENCH_sim.json

# bench-smoke executes every simulator benchmark exactly once so the bench
# suite itself cannot bit-rot; CI runs this on every push.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSim|BenchmarkFig6Dynamic' \
		-benchtime 1x -count 1 . ./internal/sim

# bench-link runs the incremental warm-path link benchmarks (cold
# decode+merge+link vs relinks through the resident caches) and records
# them, with allocation counts, as BENCH_link.json. Commit the refreshed
# file when touching the warm path.
bench-link:
	$(GO) test -run '^$$' -bench 'BenchmarkLink(Cold|Warm)' \
		-benchmem -benchtime 2s -count 1 . \
		| $(GO) run ./cmd/benchjson -o BENCH_link.json
	@cat BENCH_link.json

# linkbench-smoke keeps the warm-path suite honest on every push: each link
# benchmark runs once, then a command-line -warmcheck link proves a warm
# relink is byte-identical to the cold link that preceded it. The program
# carries a 1 MiB common, and the image must stay under 64 KiB: linked
# images store only initialized data, never the zeros of commons and bss.
linkbench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkLink(Cold|Warm)' -benchtime 1x -count 1 .
	@dir=$$(mktemp -d); \
	printf 'long g;\nlong big[131072];\nlong add(long a, long b) { return a + b; }\nlong main() { long i; i = 0; while (i < 10) { g = add(g, i); big[i] = g; i = i + 1; } return g; }\n' > $$dir/t.tc; \
	$(GO) run ./cmd/tcc -o $$dir/t.o $$dir/t.tc && \
	$(GO) run ./cmd/om -warmcheck -o $$dir/a.out $$dir/t.o && \
	size=$$(wc -c < $$dir/a.out) && \
	if [ $$size -gt 65536 ]; then echo "linkbench-smoke: a.out is $$size bytes, over 64 KiB"; false; fi; \
	status=$$?; rm -rf $$dir; exit $$status

# trace-smoke proves the decision journal accounts for every candidate
# site on a real benchmark: run one benchmark with tracing, then omtrace
# -check every journal (it fails if any address load, call site, or
# GP-reset pair is missing from the journal).
trace-smoke:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/omrepro -bench compress -fig 3 -trace $$dir >/dev/null && \
	$(GO) run ./cmd/omtrace -check $$dir/*.json; \
	status=$$?; rm -rf $$dir; exit $$status

# pgo-smoke closes the profile feedback loop on two call-heavy benchmarks:
# instrument -> profile -> relink with layout -> verify identical output,
# strict (any cycle regression fails), and the layout journal must account
# for every procedure (omtrace -check).
pgo-smoke:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/omrepro -fig pgo -bench li,sc -pgostrict -trace $$dir && \
	$(GO) run ./cmd/omtrace -check $$dir/*.pgo.json; \
	status=$$?; rm -rf $$dir; exit $$status

# omd-smoke proves the link service's exactly-one-execution property under
# load: an in-process daemon takes many concurrent identical submissions
# and must collapse them to a single link with byte-identical responses.
omd-smoke:
	$(GO) run ./cmd/omd -loadsmoke -smoke-clients 32

# verify-smoke is the correctness-engine gate: every golden matrix cell of
# two real benchmarks must translation-validate with zero failures, 200
# generated programs must behave identically unoptimized and optimized
# across the quick matrix, and each fuzz target runs 10 seconds from its
# seeded corpus (the minimized crashers in testdata/fuzz also replay as
# plain tests under `make test`). One -fuzz target per invocation — the
# go tool accepts only one fuzzing pattern at a time.
verify-smoke:
	$(GO) run ./cmd/omverify -matrix -bench li,compress
	$(GO) run ./cmd/omverify -diff 200 -seed 1
	$(GO) test -run '^$$' -fuzz '^FuzzObjfileRead$$' -fuzztime 10s ./internal/objfile
	$(GO) test -run '^$$' -fuzz '^FuzzImageRead$$' -fuzztime 10s ./internal/objfile
	$(GO) test -run '^$$' -fuzz '^FuzzLink$$' -fuzztime 10s ./internal/link
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalOptions$$' -fuzztime 10s ./internal/om
	$(GO) test -run '^$$' -fuzz '^FuzzProfileRead$$' -fuzztime 10s ./internal/profile

# verify is the tier-1 gate: everything CI runs.
verify: build vet test race fmt-check lint lint-smoke bench-smoke linkbench-smoke trace-smoke pgo-smoke omd-smoke verify-smoke

clean:
	$(GO) clean ./...
