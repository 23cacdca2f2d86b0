# Make targets mirror the CI pipeline (.github/workflows/ci.yml) exactly, so
# "it passes locally" and "it passes in CI" mean the same thing.

GO ?= go

# FUZZTIME is the per-target budget of the fuzz target.
FUZZTIME ?= 30s

# SEEDS is how many seeds per scenario the sim-sweep target runs.
SEEDS ?= 500

.PHONY: all build test race bench bench-check fuzz smoke leaderkill fmt fmt-check vet doc-check byz sim-sweep recovery-race cluster-race clean

all: build test

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full test suite
test:
	$(GO) test ./...

## race: run the full test suite under the race detector
race:
	$(GO) test -race ./...

## bench: one-iteration smoke pass over the paper-reproduction benchmarks
## (compiles and runs each once; use `go test -bench=. ./...` for real
## measurements). The deployed system is measured by benchmark/run.sh
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-check: vet and test the repository benchmark (benchmark/, a module
## of its own that compiles against the internal packages through a replace
## directive, so root-level build/vet/test do not see it): an internal-API
## refactor that breaks it fails here instead of in the benchmark pipeline
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

## fuzz: run every fuzz target for FUZZTIME each (Go allows one -fuzz
## pattern per invocation, hence one line per target)
fuzz:
	$(GO) test ./internal/smr -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/msg -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/msg -run '^$$' -fuzz '^FuzzDecodeReply$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzDecodeClientFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzDecodeWALRecord$$' -fuzztime $(FUZZTIME)

## smoke: boot a 4-replica cluster as one OS process per replica (each with
## a durable data dir), serving a networked TCP client; one replica is
## kill -9'd mid-workload, restarted from its data dir, and a different
## replica is killed after it — so finishing proves the recovered replica
## rejoined consensus; the command's own -timeout watchdog kills the
## children if anything hangs. The second run repeats the same drill with
## every process hosting two consensus groups over one transport and one
## data dir (the second victim leads one of the groups, so that group's
## writes ride the windowed view change), driven by the shard-aware client.
## In both runs the parent scrapes every live child's HTTP introspection
## endpoint mid-workload and reads its end-of-drill gates from the same
## endpoints
smoke:
	$(GO) run ./cmd/fastbft-cluster -f 1 -t 1 -procs -ops 40 -timeout 120s
	$(GO) run ./cmd/fastbft-cluster -f 1 -t 1 -procs -shards 2 -ops 40 -timeout 120s

## leaderkill: boot the same multi-process cluster and kill -9 the view-1
## leader process mid-workload, never restarting it — the rest of the
## workload must commit through the windowed view change, the first
## post-kill write must confirm within the recovery bound, and every
## surviving replica's metrics endpoint must show regime-timer suspicions
leaderkill:
	$(GO) run ./cmd/fastbft-cluster -f 1 -t 1 -procs -leaderkill -ops 30 -timeout 120s

## fmt: rewrite sources with gofmt
fmt:
	gofmt -w .

## fmt-check: fail if any file is not gofmt-clean (CI uses this)
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## vet: run go vet over every package
vet:
	$(GO) vet ./...

## doc-check: fail if any package lacks a package doc comment (CI runs this
## alongside vet; cmd/doccheck is the scanner)
doc-check:
	$(GO) run ./cmd/doccheck

## byz: the Byzantine adversary suite under the race detector — the five
## simulator-driven SMR attack scenarios of internal/byz, each under both resilience
## shapes (n=5f−1 fast and n=3f+1 slow), plus the multi-process drills where
## one replica OS process runs the garbage or the equivocate adversary
## against a networked client (see docs/THREAT_MODEL.md for the taxonomy)
byz:
	$(GO) test -race -run 'TestByz' ./internal/byz
	$(GO) test -race -count=1 -run 'TestRunMultiProcessByzantine|TestRunMultiProcessEquivocate' ./cmd/fastbft-cluster

## sim-sweep: the seeded-schedule smoke of internal/smr (whole clusters under
## random per-message delays on the simulator's virtual time; agreement,
## exactly-once, identical stores, bounded-time progress) over SEEDS seeds per
## scenario instead of CI's 20. A failure prints its seed; replay it with
## `go test ./internal/smr -run TestSeededScheduleSmoke -sim.first=<seed> -sim.seeds=1`
sim-sweep:
	$(GO) test ./internal/smr -count=1 -run 'TestSeededScheduleSmoke' -sim.seeds=$(SEEDS)

## recovery-race: the crash-recovery and torn-write suites under the race
## detector (CI runs this as its own step; the paths mix goroutines,
## fsync ordering, and process state, so interleavings deserve extra dice)
recovery-race:
	$(GO) test -race -count=2 -run 'Durable|TornWrite|Recover|WALRecord|Checkpoint|GroupCommit' ./internal/storage ./internal/smr
	$(GO) test -race -run 'TestKVReplicaDurableRestart' .

## cluster-race: the in-process TCP cluster run of cmd/fastbft-cluster
## (n = 4 replicas over localhost, 20 replicated writes) twenty times under
## the race detector (CI runs this as its own step): a replica left out of
## the fast quorums must catch up on every run, not most runs
cluster-race:
	$(GO) test -race -count=20 -run 'TestRunSmallCluster$$' ./cmd/fastbft-cluster

## clean: drop build and test caches scoped to this module, plus any
## leftover replica data directories from local runs (the per-group WALs
## and snapshots live as g<k>- namespaced files inside these same
## per-replica directories, so the patterns cover them too)
clean:
	$(GO) clean ./...
	rm -rf fastbft-cluster-data-* /tmp/fastbft-cluster-data-* 2>/dev/null || true
