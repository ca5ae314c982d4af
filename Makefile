# Make targets mirror CI exactly (.github/workflows/ci.yml) so humans and
# the pipeline always invoke identical commands.

GO ?= go

# Snapshot file produced by `make snap` and audited by `make snap-verify`.
SNAP ?= snapshot.spv

.PHONY: all build test short race purego fuzz-smoke bench bench-micro bench-json bench-gate bench-smoke bench-restart load load-gate snap snap-verify audit large-snap loc fmt fmt-check vet lint clean

# staticcheck version the lint lane pins (CI installs exactly this).
STATICCHECK_VERSION ?= 2025.1

all: build vet fmt-check race

build:
	$(GO) build ./...

# Full test lane: everything, including the long adversarial/attack and
# large-dataset tests.
test:
	$(GO) test ./...

# Short lane: what CI runs on every push; long tests skip via testing.Short.
short:
	$(GO) test -short ./...

# The race lane is also the one that runs the update-swap hammer
# (serve.TestQueriesRaceUpdates, with and without latency budgets).
race:
	$(GO) test -race -short ./...

# The packages that hash, built without the SHA-NI SHA-1 kernel
# (internal/digest's only assembly): crypto/sha1 must keep passing
# TestGoldenByteCompat, the attack matrix and TestVerifyMatchesReference,
# because it is what runs off amd64 and on CPUs without the SHA extensions.
purego:
	$(GO) test -tags purego ./internal/digest ./internal/mht ./internal/mbt ./internal/cert ./internal/core

# Fuzz smoke: every fuzz target for FUZZTIME apiece (go test takes one
# package and one target per run) — the decoders of everything that
# arrives as untrusted bytes, and FuzzVerifyProof, which carries accepted
# decodes on through client verification. Minimising each new corpus entry
# is capped so a ten-second lane spends its time fuzzing.
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	./internal/digest:FuzzSHA1Kernel \
	./internal/mht:FuzzDecodeProof \
	./internal/core:FuzzDecodeDIJProof \
	./internal/core:FuzzDecodeFULLProof \
	./internal/core:FuzzDecodeLDMProof \
	./internal/core:FuzzDecodeHYPProof \
	./internal/core:FuzzRegistryDecodeProof \
	./internal/core:FuzzDecodeProofBatch \
	./internal/core:FuzzVerifyProof \
	./internal/core:FuzzReadProviderSet \
	./internal/cert:FuzzDecodeCertificate \
	./internal/snapshot:FuzzReader \
	./internal/snapshot:FuzzScan \
	./internal/snapshot:FuzzFile
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "== fuzz $${t%%:*} $${t##*:} ($(FUZZTIME))"; \
		$(GO) test $${t%%:*} -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1s; \
	done

# Benchmark smoke: one iteration of every benchmark with -benchmem, no
# tests — catches benchmarks that stopped compiling or started failing.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./...

# The hash, Merkle-slab and search micro-benchmarks, one iteration each with
# allocations reported: digest's AppendSum at 40 B / 58 B / 1 KiB / one
# certificate row for both algorithms, mht's Build, Prove, Rehydrate and
# UpdateLeaves on a 412,805-leaf fanout-2 SHA-1 tree (the shape of HYP's
# distance tree in the repository benchmark's world) and sp's single-search
# Ball. CI's full lane runs this so they cannot rot.
bench-micro:
	$(GO) test -run '^$$' -bench '^BenchmarkAppendSum$$' -benchtime 1x -benchmem ./internal/digest
	$(GO) test -run '^$$' -bench '^Benchmark(Build|Prove|Rehydrate|UpdateLeaves)$$' -benchtime 1x -benchmem ./internal/mht
	$(GO) test -run '^$$' -bench '^BenchmarkBall$$' -benchtime 1x -benchmem ./internal/sp

# Machine-readable hot-path numbers (ns/op, B/op, allocs/op) for the
# standard world → BENCH_PR10.json, with the committed PR7 snapshot embedded
# as the baseline, plus the open-loop load lanes. CI uploads this as an
# artifact so perf regressions are visible in PR checks.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_PR10.json -baseline BENCH_PR7.json -load-duration 4s

# Regression gate: measure now, then compare against the committed
# per-CPU-count baseline. benchjson compare exits non-zero when a lane
# regresses past the threshold; a missing baseline for this host's CPU
# count (or a CPU-count mismatch inside compare) skips the gate with a
# visible warning instead of false-failing — commit the emitted candidate
# as BENCH_BASELINE_<n>cpu.json to arm it.
BENCH_THRESHOLD ?= 0.50
bench-gate:
	$(GO) run ./cmd/benchjson -out BENCH_CURRENT.json -load-duration 4s
	@cpus=$$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN); \
	base=BENCH_BASELINE_$${cpus}cpu.json; \
	if [ -f $$base ]; then \
		$(GO) run ./cmd/benchjson compare -threshold $(BENCH_THRESHOLD) $$base BENCH_CURRENT.json; \
	else \
		echo "GATE SKIPPED: no $$base committed for this $${cpus}-CPU host."; \
		echo "Review BENCH_CURRENT.json and commit it as $$base to arm the gate."; \
	fi

# Open-loop load run against a locally started spvserve (DE @ 0.05, the
# standard world): mixed method traffic with concurrent updates and one
# snapshot save, report to load.json. The server is torn down via
# SIGTERM, exercising the graceful drain path.
load:
	$(GO) build -o /tmp/spv-load-serve ./cmd/spvserve
	$(GO) build -o /tmp/spv-load-drive ./cmd/spvload
	@set -e; \
	/tmp/spv-load-serve -dataset DE -scale 0.05 -methods DIJ,LDM,HYP \
		-updates -save /tmp/spv-load-world.spv -addr 127.0.0.1:8099 & \
	pid=$$!; trap "kill -TERM $$pid 2>/dev/null; wait $$pid 2>/dev/null" EXIT; \
	for i in $$(seq 1 120); do \
		curl -sf http://127.0.0.1:8099/healthz >/dev/null 2>&1 && break; sleep 0.5; done; \
	/tmp/spv-load-drive -url http://127.0.0.1:8099 -dataset DE -scale 0.05 \
		-rate 200 -duration 10s -warmup 2s -mix DIJ=1,LDM=2,HYP=1 \
		-batch-frac 0.1 -batch-size 8 -update-every 500ms -snapshot-at 5s \
		-out load.json

# Client-side latency gate: the same friendly-pool run as `make load`
# (shipped server defaults) written to LOAD_CURRENT.json, then compared
# against the committed per-CPU baseline of client-observed latency.
# `benchjson loadgate` applies the bench
# gate's honesty rules: cross-CPU-count comparisons are refused with a
# visible skip, and any errors, drops or sheds in the current run fail
# outright. No baseline for this host's CPU count skips with a warning —
# commit the emitted LOAD_CURRENT.json as LOAD_BASELINE_<n>cpu.json to
# arm it.
load-gate:
	$(GO) build -o /tmp/spv-load-serve ./cmd/spvserve
	$(GO) build -o /tmp/spv-load-drive ./cmd/spvload
	@set -e; \
	/tmp/spv-load-serve -dataset DE -scale 0.05 -methods DIJ,LDM,HYP \
		-updates -save /tmp/spv-load-world.spv -addr 127.0.0.1:8098 & \
	pid=$$!; trap "kill -TERM $$pid 2>/dev/null; wait $$pid 2>/dev/null" EXIT; \
	for i in $$(seq 1 120); do \
		curl -sf http://127.0.0.1:8098/healthz >/dev/null 2>&1 && break; sleep 0.5; done; \
	/tmp/spv-load-drive -url http://127.0.0.1:8098 -dataset DE -scale 0.05 \
		-rate 200 -duration 10s -warmup 2s -mix DIJ=1,LDM=2,HYP=1 \
		-batch-frac 0.1 -batch-size 8 -update-every 500ms -snapshot-at 5s \
		-out LOAD_CURRENT.json
	@cpus=$$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN); \
	base=LOAD_BASELINE_$${cpus}cpu.json; \
	if [ -f $$base ]; then \
		$(GO) run ./cmd/benchjson loadgate -threshold $(BENCH_THRESHOLD) $$base LOAD_CURRENT.json; \
	else \
		echo "GATE SKIPPED: no $$base committed for this $${cpus}-CPU host."; \
		echo "Review LOAD_CURRENT.json and commit it as $$base to arm the gate."; \
	fi

# Persistent ADS snapshot of the standard world (spvserve's default served
# set), written via the public save path.
snap:
	$(GO) run ./cmd/spvsnap make -out $(SNAP) -dataset DE -scale 0.05 -methods DIJ,LDM,HYP

# Full snapshot audit: container CRCs, structural load, then 64 sample
# proofs per method built, decoded and client-verified against the
# embedded public key. CI runs snap + snap-verify as its round-trip lane.
snap-verify:
	$(GO) run ./cmd/spvsnap info $(SNAP)
	$(GO) run ./cmd/spvsnap verify $(SNAP) -proofs 64

# Certificate audit: one linear pass over every stored row against the
# snapshot's embedded owner-signed certificate — no queries, no Dijkstra
# re-runs. `make snap` embeds the certificate by default; exit code 3
# means the certificate rejected the stored state (tampered or
# mis-labelled), 1 an operational problem (no certificate, unreadable
# file).
audit:
	$(GO) run ./cmd/spvsnap audit $(SNAP)

# The repository benchmark's `cold` and `restart` workloads, four seconds
# each, with the layer trace: every miss builds a proof, an origin
# certifies and saves, replicas boot lazily and audited. The trace
# (benchmark/out/trace.json, uploaded by CI's snapshot lane) carries
# core.prove_us.*, core.prove_allocs.*, snapshot.first_proof_ms.*,
# cert.issue_ms, snapshot.save_ms and cert.audit_ms, so the query, snapshot
# and certificate paths have a number on every PR. bench-restart is the
# target's old name.
bench-smoke:
	$(GO) run ./benchmark -workload cold,restart -seconds 4 -trace 1

bench-restart: bench-smoke

# Large-snapshot lane: build a 10⁵-node grid world, snapshot DIJ+LDM,
# then restart a replica both ways under a GOMEMLIMIT that would make
# full-file hydration hurt. Asserts lazy open + first verified proof
# beats the eager load by ≥10× and that DIJ-only traffic leaves the LDM
# bulk on disk (resident ≪ eager). The audit-hydration lane rides along:
# a certificate audit on the lazy set must hydrate only the sections it
# touches. The log carries LARGE-SNAPSHOT size and latency markers for
# the CI artifact.
large-snap:
	SPV_LARGE_SNAPSHOT=1 GOMEMLIMIT=512MiB $(GO) test -run 'TestLargeSnapshot' -v . | tee large-snapshot.txt

# Non-test Go lines (wc -l) per package and in total, benchmark/ apart:
# the unit ROADMAP.md and the simplicity issues state their targets in.
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs wc -l | awk '$$2 != "total" { \
		d = $$2; sub(/^\.\//, "", d); sub(/\/?[^\/]*$$/, "", d); if (d == "") d = "."; n[d] += $$1; \
		if (d ~ /^benchmark/) b += $$1; else t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		printf "%7d  total outside benchmark/\n%7d  benchmark/\n", t, b }'

fmt:
	gofmt -l -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis gate: vet plus staticcheck. staticcheck is not vendored;
# CI installs the pinned version, and local runs degrade to vet-only with a
# notice when the binary is absent so offline checkouts still get a gate.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only" ; \
		echo "  (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

clean:
	$(GO) clean ./...
