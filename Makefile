# Make targets mirror CI exactly (.github/workflows/ci.yml) so humans and
# the pipeline always invoke identical commands.

GO ?= go

# Snapshot file produced by `make snap` and audited by `make snap-verify`.
SNAP ?= snapshot.spv

.PHONY: all build test short race purego fuzz-smoke bench bench-micro bench-smoke snap snap-verify audit replica-drive large-snap loc fmt fmt-check vet lint clean

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
# (serve.TestQueriesRaceUpdates, with and without latency budgets), the
# proof cache's page-store hammer (serve.TestPageStoreHammer: JSON, binary
# and /batch reads on a few pages against evictions and hot-swaps; under
# -race the pages are heap-backed so the detector sees every access), the
# stale-answer check (serve.TestNoStaleAnswerSurvivesSwap: every entry a
# swap leaves cached verifies and carries the current distance, across a
# perturb/restore update stream over all four methods) and the replica's
# background warm-up against first queries and a mid-walk Close
# (core.TestWarmRacesFirstQueries).
race:
	$(GO) test -race -short ./...

# The packages that hash, built without the SHA-NI SHA-1 kernel
# (internal/digest's assembly): crypto/sha1 must keep passing
# TestGoldenByteCompat, the attack matrix and TestVerifyMatchesReference,
# because it is what runs off amd64 and on CPUs without the SHA extensions.
# internal/b64 and internal/serve ride along without the AVX2 base64
# kernel: encoding/base64 must keep the JSON bodies byte-identical.
purego:
	$(GO) test -tags purego ./internal/digest ./internal/mht ./internal/mbt ./internal/cert ./internal/core ./internal/b64 ./internal/serve

# Fuzz smoke: every fuzz target for FUZZTIME apiece (go test takes one
# package and one target per run) — the decoders of everything that
# arrives as untrusted bytes; FuzzVerifyProof, which carries accepted
# decodes on through client verification; FuzzRepair, which holds
# update-time row repair bitwise to a fresh Dijkstra; and FuzzFullRow,
# which holds the chain-walking full-row search bitwise to the heap search
# on small chain-heavy networks. Minimising each new corpus entry
# is capped so a ten-second lane spends its time fuzzing.
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	./internal/digest:FuzzSHA1Kernel \
	./internal/b64:FuzzAppendBase64 \
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
	./internal/cert:FuzzAuditRow \
	./internal/sp:FuzzRepair \
	./internal/sp:FuzzFullRow \
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

# The micro-benchmarks, one iteration each with allocations reported:
#   digest  AppendSum at 40 B / 58 B / 1 KiB / one certificate row, both
#           algorithms;
#   b64     Append of a 27 KiB proof, AVX2 kernel and encoding/base64;
#   mht     Build, Prove, Rehydrate and UpdateLeaves on a 206,403-leaf
#           fanout-2 SHA-1 tree (the shape of HYP's distance tree in the
#           repository benchmark's world; Prove at its measured median and
#           p90 hyper-edge blocks);
#   mbt     TreeProve and TreeUpdateValues: that shape kept as HYP keeps
#           it, its top levels stored and the leaf groups re-hashed from
#           the entries;
#   sp      Ball, one single search; FullRow, one border's full row on
#           the benchmark's world, with the heap search over every node
#           beside it for reference;
#   core    UpdateStream: one applied churn update (ApplyUpdates plus the
#           DIJ, LDM and HYP patches) on the benchmark's world, with B/op,
#           allocs/op and the HYP row bytes it copies; the two producers of
#           HYP's border rows on that world, which run the same searches
#           (one full row per border): HYPBuild, hiti.Build's static W*, and
#           FullRowUpgrade, the one-time static → full-row upgrade, each
#           tree its search's parents; Certify, the DIJ+LDM+HYP certificate
#           an origin issues before its first save;
#   cert    AuditRow: one HYP border's labelling row of that world checked;
#   serve   HTTPQueryHit and HTTPQueryMiss: a GET /query through the
#           handler, JSON and binary, answered from the proof cache's pages
#           and built with the cache off.
# CI's full lane runs this so they cannot rot.
bench-micro:
	$(GO) test -run '^$$' -bench '^BenchmarkAppendSum$$' -benchtime 1x -benchmem ./internal/digest
	$(GO) test -run '^$$' -bench '^BenchmarkAppendBase64$$' -benchtime 1x -benchmem ./internal/b64
	$(GO) test -run '^$$' -bench '^Benchmark(Build|Prove|Rehydrate|UpdateLeaves)$$' -benchtime 1x -benchmem ./internal/mht
	$(GO) test -run '^$$' -bench '^BenchmarkTree(Prove|UpdateValues)$$' -benchtime 1x -benchmem ./internal/mbt
	$(GO) test -run '^$$' -bench '^Benchmark(Ball|FullRow)$$' -benchtime 1x -benchmem ./internal/sp
	$(GO) test -run '^$$' -bench '^Benchmark(UpdateStream|HYPBuild|FullRowUpgrade|Certify|AuditCertificate)$$' -benchtime 1x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkAuditRow$$' -benchtime 1x -benchmem ./internal/cert
	$(GO) test -run '^$$' -bench '^BenchmarkHTTPQuery(Hit|Miss)$$' -benchtime 1x -benchmem ./internal/serve

# Persistent ADS snapshot of the standard world (spvserve's default served
# set), written via the public save path.
snap:
	$(GO) run ./cmd/spvsnap make -out $(SNAP) -dataset DE -scale 0.05 -methods DIJ,LDM,HYP

# Full snapshot audit: container CRCs, index vs frame walk, structural
# load, then 64 sample proofs per method built, decoded and client-verified
# against the embedded public key. CI runs snap + snap-verify as its
# round-trip lane.
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

# Replica drive: boot a lazy replica from $(SNAP) the way an operator
# would, ask it for one proof per method, and require three 200s and three
# "hydrated" lines in its log — one per method section, whoever got to it
# first (the background warm-up or the query). Then boot an -audit-on-load
# replica from the same file — the certificate streamed through the audit
# before the listener binds — and require three 200s and its "audit clean"
# line. Then the post-update round, the one that loads HYP's full rows
# (parent trees) through the daemon: an origin with a fixed owner key and
# -updates takes one /update on an edge of a DIJ proof's path and one
# POST /snapshot; the file passes spvsnap verify and audit; an owner
# resumed from it takes one more /update; and an -audit-on-load replica
# from it answers three 200s and logs "audit clean".
REPLICA_ADDR ?= 127.0.0.1:18099
DRIVE_SNAP = replica-drive-updated.spv
replica-drive:
	$(GO) build -o spvserve.drive ./cmd/spvserve
	$(GO) build -o spvquery.drive ./cmd/spvquery
	$(GO) build -o spvsnap.drive ./cmd/spvsnap
	@set -e; trap 'kill $$pid 2>/dev/null || true; rm -f spvserve.drive spvquery.drive spvsnap.drive' EXIT; \
	url=http://$(REPLICA_ADDR); \
	boot() { log=$$1; shift; ./spvserve.drive -addr $(REPLICA_ADDR) "$$@" > $$log 2>&1 & pid=$$!; \
		for i in $$(seq 1 1200); do curl -sf -o /dev/null $$url/healthz && return 0; sleep 0.1; done; \
		echo "spvserve $$* never answered /healthz"; cat $$log; exit 1; }; \
	ask3() { for m in DIJ LDM HYP; do \
			code=$$(curl -s -o /dev/null -w '%{http_code}' "$$url/query?method=$$m&vs=5&vt=200"); \
			[ "$$code" = 200 ] || { echo "$$1: $$m answered $$code"; cat $$log; exit 1; }; \
		done; }; \
	post() { curl -sf "$$@" || { echo "POST $$* failed"; cat $$log; exit 1; }; echo; }; \
	stop() { kill $$pid; wait $$pid 2>/dev/null || true; }; \
	audited() { grep -q 'audit clean' $$log || { echo "$$1 logged no audit clean line"; cat $$log; exit 1; }; }; \
	boot replica-drive.log -snapshot $(SNAP); ask3 "lazy replica"; sleep 0.5; cat $$log; \
	n=$$(grep -c ' hydrated ' $$log) || true; \
	[ "$$n" = 3 ] || { echo "want 3 hydration lines, got $$n"; exit 1; }; \
	stop; \
	boot replica-drive-audit.log -snapshot $(SNAP) -audit-on-load; ask3 "audited replica"; cat $$log; \
	audited "audited replica"; stop; \
	./spvquery.drive keygen -key replica-drive.pem -pub replica-drive.pub; \
	boot replica-drive-origin.log -key replica-drive.pem -updates -save $(DRIVE_SNAP); \
	set -- $$(curl -sf "$$url/query?method=DIJ&vs=5&vt=200&format=binary" | od -An -v -tu4 --endian=big -N16); \
	post -d "{\"updates\":[{\"u\":$$2,\"v\":$$3,\"w\":4242}]}" $$url/update; \
	post -X POST $$url/snapshot; cat $$log; stop; \
	./spvsnap.drive verify $(DRIVE_SNAP) -proofs 64; \
	./spvsnap.drive audit $(DRIVE_SNAP); \
	boot replica-drive-resume.log -snapshot $(DRIVE_SNAP) -key replica-drive.pem -updates; \
	post -d "{\"updates\":[{\"u\":$$3,\"v\":$$4,\"w\":4343}]}" $$url/update; cat $$log; stop; \
	boot replica-drive-updated.log -snapshot $(DRIVE_SNAP) -audit-on-load; ask3 "audited post-update replica"; cat $$log; \
	audited "audited post-update replica"; stop

# The repository benchmark, all four workloads (cold, hot, churn, restart)
# at four seconds each with the layer trace: a verifying client against a
# real spvserve over loopback. The trace (benchmark/out/trace.json,
# uploaded by CI's bench lane) carries a number for every layer — search,
# Merkle proof, encode, HTTP, client decode and verify, update, snapshot
# save/load, certificate issue and audit (BENCHMARK.json lists the names).
# A smoke, not a claim: a claim is ten alternating parent/change pairs at
# the default 16 s window.
bench-smoke:
	$(GO) run ./benchmark -seconds 4 -trace 1

# Large-snapshot lane: build a 10⁵-node grid world, snapshot DIJ+LDM,
# then restart a replica both ways under a GOMEMLIMIT that would make
# full-file hydration hurt. Asserts lazy open + first verified DIJ proof
# reads no byte of the LDM section and nothing else twice (a counting
# reader; the lane used to state this as a ratio to the eager load's time)
# and that DIJ-only traffic leaves the LDM bulk on disk (resident ≪ eager);
# that half runs in internal/core, whose tests can open a set lazily over
# any positioned reader. The audit-hydration lane (root package) rides along:
# a certificate audit on the lazy set must hydrate only the sections it
# touches. The log carries LARGE-SNAPSHOT size and latency markers for
# the CI artifact.
large-snap:
	SPV_LARGE_SNAPSHOT=1 GOMEMLIMIT=512MiB $(GO) test -run 'TestLargeSnapshot' -v . ./internal/core | tee large-snapshot.txt

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
