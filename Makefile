GO ?= go

.PHONY: build test check bench fmt examples fuzz-smoke results validate overload-smoke overload-smoke-fast

# Experiments recorded in results_full.txt: the registry minus sec4 and
# overload, whose wall-clock measurements are not deterministic.
RESULTS_EXPERIMENTS = fig12,table1,table2,fig3,table3,fig4,table4,qgrowth,inflate,loadsweep,ablations,multiq,moldable,faults,validate,trace,routing

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the full verification gate: static analysis and the whole
# test suite under the race detector. staticcheck runs when installed
# and is skipped (with a note) otherwise — CI always installs it, so
# local environments without it still get the rest of the gate. The
# benchmark program is its own module (bench/); CI tests and smokes it
# in separate steps.
check:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	$(GO) test -race ./...

# bench runs the repository's benchmark: every workload BENCHMARK.json
# declares, through the program in bench/ (see bench/README.md for the
# metrics, the flags and how to compare two commits).
bench:
	bash bench/run.sh

fmt:
	gofmt -l -w .

# examples runs each program under examples/ to completion, so a
# runtime failure fails the target, not only a compile error. Each
# takes about a second once built.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multicluster
	$(GO) run ./examples/predictability
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/gridservice

# fuzz-smoke runs the tree's native fuzz targets for ten seconds each:
# FuzzEventOrder drives random scripts of schedules (future and
# same-instant), cancels and partial runs
# against the DES kernel's (time, priority, seq) firing order;
# FuzzProfileProbe drives random allocate/release/probe scripts against
# sched.Profile and holds FindEarlierAnchor, CBF compression's
# non-mutating search, to a per-second reference and every Profile.Move
# to the two AddBusy calls it replaces; FuzzCluster runs
# sched's byte-script interpreter — submits, finishes, cancels, idle
# time and redundant copies against FCFS, EASY or CBF clusters — and
# holds every event to the reference for its algorithm: the full EASY
# pass, class caps included, and Profile-built shadow, the CBF rewrite reference and timer
# minimum, and exact start times on cancel-free streams; FuzzEnvelope
# feeds arbitrary bytes to the middleware's envelope and reply decoder
# and holds whatever it accepts to encoding/xml: the same value, the
# same Validate verdict, and a re-encoding equal to the input;
# FuzzProtocol feeds arbitrary command lines to pbsd's byte-path
# line-protocol handler and to its reference string handler, each on
# its own daemon, in both cycle modes, and holds the two to
# byte-identical replies and equal Stat readings, and every reply to the
# protocol's shapes and the daemon's queue: an accepted QSUB queues one
# job under a larger ID, an accepted QDEL removes one, and QSTAT
# reports Stat; FuzzSWF feeds arbitrary bytes to the SWF trace parser and holds
# whatever it accepts to a Write and Parse round trip that changes
# nothing, and to a Jobs conversion that does not panic; FuzzJournal
# feeds arbitrary logs, and prefixes of them cut anywhere, to pbsd's
# journal replay and holds it to a line-by-line reference: a torn tail
# is ignored whether or not it parses, and a newline-terminated line
# that does not parse fails recovery. A failure
# leaves its input under the package's testdata/fuzz to commit as a
# regression case.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEventOrder -fuzztime 10s ./internal/des
	$(GO) test -run '^$$' -fuzz FuzzProfileProbe -fuzztime 10s ./internal/sched
	$(GO) test -run '^$$' -fuzz FuzzCluster -fuzztime 10s ./internal/sched
	$(GO) test -run '^$$' -fuzz FuzzEnvelope -fuzztime 10s ./internal/middleware
	$(GO) test -run '^$$' -fuzz FuzzProtocol -fuzztime 10s ./internal/pbsd
	$(GO) test -run '^$$' -fuzz FuzzSWF -fuzztime 10s ./internal/swf
	$(GO) test -run '^$$' -fuzz FuzzJournal -fuzztime 10s ./internal/pbsd

# validate runs the validation harness: the invariant suite (causality,
# liveness, capacity, work conservation, CPU-time ledger, determinism)
# over representative scenarios, the analytical queueing twins, and the
# SWF trace replay. Exits non-zero on any violation; record confirmed
# violations in FINDINGS.md.
validate:
	$(GO) run ./cmd/redsim -run validate,trace -q

# overload-smoke drives the overload experiment — the real daemon +
# middleware stack behind the fault proxy, open-loop load, admission
# control, and the breaker chaos window — at a single low rate under
# the race detector. Wall-clock and nondeterministic (like sec4), so
# it is a liveness/race gate, not a results snapshot; finishes in a
# few seconds.
overload-smoke:
	$(GO) run -race ./cmd/redsim -run overload -sweep 50 -stack legacy -q

# overload-smoke-fast is the same gate on the optimized stack only:
# incremental scheduling cycles, group-committed journal, pooled
# batched client. Exercises the fast path's concurrency under -race.
overload-smoke-fast:
	$(GO) run -race ./cmd/redsim -run overload -sweep 50 -stack fast -q

# results regenerates results_full.txt through the registry dispatcher
# (deterministic: fixed seeds, timing on stderr) and diffs it against
# the committed file. An unchanged file is left alone; a drifted one is
# replaced so the diff can be reviewed and committed.
results:
	$(GO) run ./cmd/redsim -run $(RESULTS_EXPERIMENTS) -q > results_full.txt.tmp
	@if diff -u results_full.txt results_full.txt.tmp; then \
		echo "results_full.txt: up to date"; rm results_full.txt.tmp; \
	else \
		mv results_full.txt.tmp results_full.txt; \
		echo "results_full.txt updated — review the diff above and commit"; \
	fi
