GO ?= go

.PHONY: all build vet lint lint-json test race fuzz ci bench bench-round bench-kernels bench-comm bench-data

# Per-fuzzer budget for the `fuzz` target; override with
# `make fuzz FUZZTIME=1m` for longer local hunts.
FUZZTIME ?= 5s

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain-specific static analysis (internal/lint): pool/tape lifetimes,
# seeded-randomness discipline, map-order determinism, float comparison
# hygiene, mutex-guard annotations, dropped errors, the privflow
# privacy-boundary taint analysis, and the concurrency suite — lockorder
# (lock-acquisition cycles, blocking ops under a held lock), goroleak
# (every spawned goroutine needs a provable exit path), and cancelflow
# (deadlines propagate into every blocking callee on the fan-out path) —
# plus shapeflow, interprocedural tensor shape inference over //shape:
# contracts that proves runtime shape panics unreachable.
# Findings are cached under .lintcache/ keyed by file contents, so
# unchanged repeat runs skip type-checking; -timing prints per-rule wall
# time so a cache regression shows up as nonzero time on a warm run.
lint:
	$(GO) run ./cmd/gtv-lint -timing ./...

# Machine-readable findings for tooling; exit status 1 (findings exist)
# still writes the report, only a lint crash (exit 2) fails the target.
# No -timing: the report is committed and drift-checked by ci.sh, so it
# must be byte-deterministic (wall times are not).
lint-json:
	$(GO) run ./cmd/gtv-lint -json ./... > LINT_findings.json || [ $$? -eq 1 ]

test:
	$(GO) test ./...

# Race-detector runs: short mode across the module (heavy GAN-training
# tests skip themselves; everything concurrency-relevant still runs),
# full mode for the concurrency-critical packages — including the
# teardown tests that assert goroutine counts return to baseline after
# Close. internal/core stays off the full-mode list on purpose: its
# non-short tests are race-instrumented GAN training (~90s of matmul)
# with no goroutine coverage the vfl/tensor passes don't already have.
race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/vfl/... ./internal/tensor/... ./internal/autograd/...

# Short-budget runs of every fuzzer in the module: the gtvsnap checkpoint
# decoder, the gtvwire frame decoder, the blocked-matmul kernel, and the
# gtvcol columnar file decoder (hostile bytes + encode/decode round-trip).
# Each guards a byte-level or numeric contract that unit tests only sample.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/snap
	$(GO) test -run '^$$' -fuzz FuzzWireFrameDecode -fuzztime $(FUZZTIME) ./internal/vfl
	$(GO) test -run '^$$' -fuzz FuzzMatMulAgainstNaive -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzColFileDecode -fuzztime $(FUZZTIME) ./internal/coldata
	$(GO) test -run '^$$' -fuzz FuzzColRoundTrip -fuzztime $(FUZZTIME) ./internal/coldata

ci: vet lint build test race fuzz

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# The sequential-vs-concurrent round benchmarks behind the numbers recorded
# in CHANGES.md, plus the end-of-round shuffle alone (in-memory and gtvcol
# clients at 8k and 240k rows).
bench-round:
	$(GO) test -run xxx -bench 'BenchmarkGTVTrainingRound(Latency)?$$' -benchtime 5x .
	$(GO) test -run xxx -bench BenchmarkLocalClientEndRound -benchmem ./internal/vfl

# Kernel microbenchmarks (matmul variants, broadcast ops, backward passes),
# recorded as JSON in BENCH_kernels.json. The raw go test output is echoed
# to stderr by the converter.
bench-kernels:
	$(GO) test -run xxx -bench . ./internal/tensor ./internal/autograd \
		| $(GO) run ./cmd/benchjson > BENCH_kernels.json

# Transport benchmarks: gtvwire round-trip latency, allocs/op and framed
# bytes/op at paper-scale payloads (f64 and f32 payload modes), plus the
# delayed-round latency of the sequential, concurrent and gtvwire-loopback
# drivers. Recorded as JSON in BENCH_comm.json.
bench-comm:
	{ $(GO) test -run xxx -bench BenchmarkWireRoundTrip -benchtime 50x ./internal/vfl ; \
	  $(GO) test -run xxx -bench 'BenchmarkGTVTrainingRoundLatency$$' -benchtime 5x . ; } \
		| $(GO) run ./cmd/benchjson > BENCH_comm.json

# Data-plane benchmarks: whole-process gtv-train runs (in-memory vs gtvcol
# streamed, centralized and federated, up to 10M rows) measuring training
# throughput, peak RSS, and on-disk store size. Recorded as JSON in
# BENCH_data.json. Subprocess-driven so peak RSS is the real number.
bench-data:
	$(GO) build -o /tmp/gtv-train-bench ./cmd/gtv-train
	GTV_TRAIN_BIN=/tmp/gtv-train-bench $(GO) test -run xxx -bench BenchmarkDataPlane -benchtime 1x -timeout 120m . \
		| $(GO) run ./cmd/benchjson > BENCH_data.json
