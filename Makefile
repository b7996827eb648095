# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all test race bench bench-check bench-legs crash-race experiments examples vet lint clean

all: vet test

# STATICCHECK pins the analyzer version so local runs and CI lint with
# the same binary; bump the pin here and nowhere else.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1

# One lint entry point for local runs and CI: gofmt drift, go vet, and
# the pinned staticcheck. Fetching staticcheck needs the module proxy;
# on an offline machine that step degrades to a warning instead of
# failing the build (vet and gofmt still gate).
lint:
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt drift in:"; echo "$$fmt_out"; exit 1; fi
	go vet ./...
	@if go run $(STATICCHECK) -version >/dev/null 2>&1; then \
		go run $(STATICCHECK) ./...; \
	else \
		echo "warning: staticcheck unavailable (offline?); skipped"; \
	fi

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

bench:
	go test -bench=. -benchmem ./...

# Benchmark legs. `make bench-<leg>` runs the benchmarks matching
# BENCH_RE_<leg> (at BENCH_CPU_<leg>, when set) and renders them with
# cmd/benchjson to BENCH_<leg>.json, deriving that leg's figures of merit:
#   concretize — cold / warm-memo / parallel Fig. 8 sweeps, the per-hit
#                micro-benchmark, and the ARES reuse-vs-greedy solve;
#   store      — 1/2/4/8 concurrent builders (install+save) and readers
#                (lookup) on one store, at GOMAXPROCS 8;
#   buildcache — the 47-package ARES stack from source vs. from a seeded
#                cache at Jobs=8;
#   env        — `env install` of a three-root manifest, fresh vs. against
#                the unchanged lockfile;
#   service    — a 256-client install herd against the HTTP daemon (cold
#                store, then warm);
#   sched      — the cold ARES DAG built by 1/2/4/8 lease workers vs. the
#                single-machine Jobs=8 executor;
#   lifecycle  — a journaled GC sweep of a majority-dead ARES store;
#   splice     — the ARES stack rewired from zlib@1.2.7 to 1.2.8 by
#                relocation vs. recompiling the same dependent cone.
BENCH_LEGS := concretize store buildcache env service sched lifecycle splice
BENCH_RE_concretize := Fig8|ConcretizeCacheHit|ARESConcretize(GreedyCold|Reuse)
BENCH_RE_store := StoreContention|StoreLookupContention
BENCH_RE_buildcache := BuildcacheARES
BENCH_RE_env := EnvInstall
BENCH_RE_service := ServiceInstallHerd
BENCH_RE_sched := SchedWorkers
BENCH_RE_lifecycle := LifecycleGC
BENCH_RE_splice := SpliceVsRebuild
# A -cpu list is fine: benchjson keeps each value's results apart and
# derives every figure once per value ("<figure>-<N>").
BENCH_CPU_store := -cpu 8

# The leg list as a JSON array: CI's bench matrix reads it from here.
comma := ,
space := $() $()
bench-legs:
	@echo '[$(subst $(space),$(comma),$(patsubst %,"%",$(BENCH_LEGS)))]'

.PHONY: $(addprefix bench-,$(BENCH_LEGS))
$(addprefix bench-,$(BENCH_LEGS)): bench-%:
	go test -run '^$$' -bench '$(BENCH_RE_$*)' $(BENCH_CPU_$*) -benchmem . \
		| tee bench_$*.txt \
		| go run ./cmd/benchjson -o BENCH_$*.json
	cat BENCH_$*.json

# Regression gate: every committed benchmark report must clear the bars
# declared in cmd/benchjson's figures table.
bench-check:
	go run ./cmd/benchjson -check $(foreach leg,$(BENCH_LEGS),BENCH_$(leg).json)

# The transactional-integrity suite under the race detector: every
# crash-injection sweep (journal recovery, env apply/uninstall, view
# refresh, GC and mirror-prune sweeps, mid-splice crashes) across the
# packages that stage through internal/txn.
crash-race:
	go test -race -run 'Crash|Recover|Fault|HalfLink' \
		./internal/txn/ ./internal/store/ ./internal/views/ ./internal/modules/ ./internal/env/ ./internal/buildcache/ ./internal/lifecycle/ ./internal/splice/

experiments:
	go run ./cmd/experiments -all

examples:
	go run ./examples/quickstart
	go run ./examples/ares
	go run ./examples/pythonstack
	go run ./examples/sitepolicies
	go run ./examples/toolstack

clean:
	rm -f spack-go test_output.txt bench_output.txt experiments_output.txt bench_*.txt
