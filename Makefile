GO ?= go

.PHONY: build test vet fmt counters rigs maporder race race-robustness smoke robustness examples verify vuln benchmark-check virtual-identity ab reach allocs knobs claims loc loc-diff fuzz check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt over the whole tree must have nothing to say.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Every counter under internal/ is written and read through its registered
# metrics.Counter, never its name (DESIGN.md §10): a string literal reaching
# a counter's Add or Get there fails, tests included. Only internal/metrics'
# own registry tests, which drive Get's refusal of an unknown name, spell one.
counters:
	@out=$$(grep -rnE '\.(Add|Get)\("' internal | grep -v '^internal/metrics/metrics_test.go:'); \
	test -z "$$out" || { echo "make counters: a counter written or read by name:"; echo "$$out"; exit 1; }

# A driver that never returns fails its test (DESIGN §16): a test outside
# internal/sim runs its driver processes under sim.Drive / sim.DriveUntil,
# which name every driver whose function has not returned when the run ends.
# A direct .Run() or .RunUntil( in a *_test.go under internal/, cmd/ or
# examples/ carries a `// no driver: <why>` comment on its line or the line
# above: a run of callbacks or engines alone, an allocation step, a window
# whose parked driver is the point. internal/sim's own tests call Run because
# they test it. They close what they open instead: every NewEnv in
# internal/sim's tests is testEnv's own, which closes the Env when its test
# ends, or carries a `// no close: <why>` comment on its line or the line
# above — an Env left open keeps its parked processes' coroutines, and all
# they reach, alive for the rest of the test binary.
rigs:
	@out=$$(find internal cmd examples -name '*_test.go' -not -path 'internal/sim/*' | sort | xargs -r awk ' \
		FNR == 1 { prev = "" } \
		/\.(Run\(\)|RunUntil\()/ && $$0 !~ /\/\/ no driver: [^ ]/ && prev !~ /^[ \t]*\/\/ no driver: [^ ]/ { print FILENAME ":" FNR ": " $$0 } \
		{ prev = $$0 }'); \
	test -z "$$out" || { echo "make rigs: a direct Run with neither the driver rig nor a // no driver: reason:"; echo "$$out"; exit 1; }
	@out=$$(find internal/sim -name '*_test.go' | sort | xargs -r awk ' \
		FNR == 1 { prev = "" } \
		/NewEnv\(/ && $$0 !~ /\/\/ no close: [^ ]/ && prev !~ /^[ \t]*\/\/ no close: [^ ]/ && prev !~ /^func testEnv\(/ { print FILENAME ":" FNR ": " $$0 } \
		{ prev = $$0 }'); \
	test -z "$$out" || { echo "make rigs: an Env in the internal/sim tests opened with neither testEnv nor a // no close: reason:"; echo "$$out"; exit 1; }

# Map iteration order decides nothing (DESIGN §16): every range over a map in
# production code under internal/ sorts the slice it appends to, after the
# range, or carries an `// order-free` comment saying why its order cannot
# matter. cmd/maporder type-checks the tree with go/types (standard library
# only) and names each range that does neither.
maporder:
	$(GO) run ./cmd/maporder internal

race:
	$(GO) test -race ./...

# The concurrency-heavy robustness packages under the race detector at
# -count=2: the client guard/hedge/cancel races and its request-end matrix
# (every way a request ends, against everywhere its attempts can stand when
# it does), the bypass READ-vs-
# eviction-vs-crash soak in cluster, the replication forward/ack/scrub
# engine (TestEngineNeverWaitsOnTheStore: acks and forwards against a wedged
# store call, a forward queued across a crash), its install matrix (every
# way a version of a key reaches a store, against everything going on there
# when it does — the apply pool and the background lane included) and its
# frame and round lists (TestPooledFramesUnderFaults: every holder of a
# frame and a round through drops, duplicates, corruption, a link-down
# window and a kill with a cold restart), the client's bypass reads of the
# directory's held buckets and segments (TestPooledBucketsUnderFaults in
# internal/core: drops, duplicated and late READs and a cold restart with
# READs in flight; each pooled-fault test ends in the census of every
# list, and TestCensusNamesWhatLeaks in internal/cluster plants leaks for
# it to name), the
# server's path matrix (every way an arrival reaches the storage phase, crashed at each
# point), the hybrid slab's region-writer matrix (every way a region reaches
# the SSD, refused, restarted and torn at each point), the store's command
# races (four workers on one key: get vs set, and the conditional and
# read-modify-write commands) and its item pool (TestPooledItemsUnderFaults:
# four workers on eight keys against every holder of a stored item, through
# compaction, bit rot, a scrub and a cold restart), the history checker, and
# the fabric's transfer pool (TestRecycledTransfersUnderFaults in internal/verbs: 10^5
# posts through drops, duplicates, corruption and spikes, every completion
# checked against its own work request), and the page cache's writeback
# (TestThrottledWritebackDepth: a throttled writer starts a second writeback
# stream, so two procs take from the one dirty set across their device
# waits) and its throttle (TestThrottleReleaseIgnoresLaterWriters,
# TestThrottledWritersLeaveInParkOrder, TestColdRestartReleasesParkedWriters:
# each parked writer's ticket against the streams' completions, other
# writers and a cold restart), the kernel's waits (internal/sim), the
# fault injectors' scheduled windows (internal/fault, internal/blockdev) and
# the hold-counted free list the client's requests, the server's replies,
# the store's items, the directory's records and replication's frames and
# rounds recycle through, and its census (internal/pool). A named subset of
# `race`, kept separate so a detector hit points straight at the robustness
# suite (and so it stays cheap enough to run on every edit).
race-robustness:
	$(GO) test -race -count=2 ./internal/core ./internal/cluster ./internal/replication ./internal/server ./internal/hybridslab ./internal/store ./internal/history ./internal/verbs ./internal/simnet ./internal/pagecache ./internal/sim ./internal/fault ./internal/blockdev ./internal/pool

# Run every registered experiment end to end at a tiny operation count.
smoke:
	$(GO) run ./cmd/mc-bench -smoke

# The robustness gate: fault-injection, cold-restart recovery, bounded
# admission under overload, the chaos-soak invariant checker, the
# replication durability sweep, the server-bypass read-path comparison,
# the hot-key fan-out flash crowd (including its fan-out-under-kills
# history cell), and the dynamic-membership churn (joins, a
# kill-during-migration, a decommission under the zero-loss checker),
# the gray-failure cells (a fail-slow node under brown-out routing,
# background pacing, and a crash-during-brown-out failover), and the
# bit-rot matrix (at-rest SSD corruption vs read verification and scrub
# repair, with the corrupt-read oracle), all at smoke scale. The full
# `smoke` run covers every one of them with the same binary and flags, so
# `check` runs that and not this; kept as a named target for a quick pass
# over the robustness suite alone.
robustness:
	$(GO) run ./cmd/mc-bench -smoke faults recovery overload chaos replication bypass hotkey membership grayfail bitrot

# The three examples are the paper's Listings 1 and 2 against the client API,
# run end to end: an API error or a failed read-back (burstyio verifies every
# chunk) panics, and a non-zero exit fails the target.
examples:
	@for ex in examples/*/; do $(GO) run ./$$ex >/dev/null || { echo "make examples: $$ex failed" >&2; exit 1; }; done

# Native fuzzing of the parsers that face the wire (internal/protocol/
# fuzz_test.go), of the one hash table every per-key index shares
# (internal/keytab/fuzz_test.go) and of the page cache's index of resident
# pages (internal/pagecache/index_test.go): each target for a short fixed time, one
# `go test` each because -fuzz takes exactly one. The seed corpus already runs
# under plain `go test`; this explores from it, so it is not part of `check` —
# a finding lands in the package's testdata/fuzz/ as a new seed, to be
# committed with its fix.
FUZZTIME ?= 10s
fuzz:
	@for t in protocol:FuzzUnmarshalHeader protocol:FuzzUnmarshalResponse protocol:FuzzUnmarshalBatch keytab:FuzzTable pagecache:FuzzPageIndex; do \
		$(GO) test ./internal/$${t%%:*} -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Known-vulnerability scan, gated on the tool being present: the build
# environment is offline, so the scanner is never fetched here — when
# it is preinstalled the gate is real, otherwise it reports and passes.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping vulnerability scan"; fi

# The yardstick's determinism gate (benchmark/README.md): every workload of
# ./benchmark twice at 1/20 scale, and once more on another seed; any virtual
# number that differs between the two runs fails.
benchmark-check:
	$(GO) run ./benchmark -check

# The golden gate: every registry experiment at default op counts (how the
# snapshots are taken), compared record by record and exactly against the
# committed BENCH_<id>.json at the repo root. Any changed, missing or extra
# record is named — experiment, design.metric, committed, fresh — and fails
# the target. A model change that is meant to move numbers regenerates the
# snapshots it moved, explicitly: mc-bench -json . <experiment ids>.
verify:
	$(GO) run ./cmd/mc-bench -verify . all

# Virtual-clock identity against another commit, for changes that must not
# move a simulated number (kernel, fabric, host-cost work):
#
#	make virtual-identity BASE=<git ref>
#	make virtual-identity BASE=<git ref> EXCEPT="bypass hotkey"
#
# builds cmd/mc-bench from BASE (a `git archive` snapshot in a temporary
# directory), runs the whole experiment registry at smoke scale with -json
# there, then runs it from the working tree with -verify against that file;
# then the same for the ablations BASE lists (mc-bench -list: abl-*) at
# -ops 300. An ablation that keeps no records has its printed tables compared
# instead, with the [… wall] stamps stripped. The records hold only
# virtual-clock metrics, and a commit is self-identical run to run, so one
# differing value is a behaviour change. EXCEPT names the experiments a model
# change is meant to move: their differing records (or tables) are printed as
# the expected differences (experiment, metric, BASE, working tree) and do
# not fail the target; a difference in any other experiment still does.
virtual-identity:
	@test -n "$(BASE)" || { echo "usage: make virtual-identity BASE=<git ref> [EXCEPT=\"exp ...\"]" >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/mc-bench-base" ./cmd/mc-bench); \
	$(GO) build -o "$$tmp/mc-bench-head" ./cmd/mc-bench; \
	"$$tmp/mc-bench-base" -smoke -json "$$tmp/base.json" >/dev/null; \
	"$$tmp/mc-bench-head" -smoke -verify "$$tmp/base.json" >"$$tmp/verify.txt" 2>"$$tmp/verify.err" || \
		grep -q '^verify:' "$$tmp/verify.txt" || { cat "$$tmp/verify.err" >&2; exit 1; }; \
	abls=$$("$$tmp/mc-bench-base" -list | awk '$$1 ~ /^abl-/ { print $$1 }'); \
	"$$tmp/mc-bench-base" -ops 300 -json "$$tmp/abl.json" $$abls >/dev/null; \
	"$$tmp/mc-bench-head" -ops 300 -verify "$$tmp/abl.json" $$abls >>"$$tmp/verify.txt" 2>"$$tmp/verify.err" || \
		! grep -q '^mc-bench:' "$$tmp/verify.err" || { cat "$$tmp/verify.err" >&2; exit 1; }; \
	for a in $$abls; do \
		grep -q "\"experiment\": \"$$a\"" "$$tmp/abl.json" && continue; \
		"$$tmp/mc-bench-base" -ops 300 $$a | sed 's/\[[^]]* wall\]//' >"$$tmp/table-base.txt"; \
		"$$tmp/mc-bench-head" -ops 300 $$a | sed 's/\[[^]]* wall\]//' >"$$tmp/table-head.txt"; \
		diff "$$tmp/table-base.txt" "$$tmp/table-head.txt" | sed -n "s/^\([<>]\) */$$a table \1 /p" >>"$$tmp/verify.txt"; \
	done; \
	expected() { for e in $(EXCEPT); do [ "$$e" = "$$1" ] && return 0; done; return 1; }; \
	bad=0; moved=0; summary=""; \
	while read -r exp rest; do \
		if [ "$$exp" = "verify:" ]; then summary="$$summary$${summary:+; }$$rest"; \
		elif expected "$$exp"; then moved=$$((moved+1)); echo "  expected   $$exp $$rest"; \
		else bad=$$((bad+1)); echo "  UNEXPECTED $$exp $$rest"; fi; \
	done < "$$tmp/verify.txt"; \
	echo "virtual-identity: $(BASE) vs the working tree: $$summary; $$moved in EXCEPT=\"$(EXCEPT)\", $$bad outside it"; \
	[ "$$bad" -eq 0 ]

# Paired seeds against another commit, the measurement a performance claim is
# judged by (cmd/ab):
#
#	make ab BASE=<git ref> WORKLOAD=<w> METRIC=<end-to-end metric> [SEEDS=701-710] [RUN_SECONDS=T]
#
# builds the benchmark from a `git archive` snapshot of BASE (as
# virtual-identity does) and from the working tree, runs both through
# benchmark/run.sh once per seed, alternating which side runs first, at
# BENCHMARK.json's run_seconds unless RUN_SECONDS is given; prints per pair both
# values of METRIC and the winner, then the wins out of the pairs, both medians
# and BASE's interquartile range, then every other end-to-end metric's median
# change beside its bound, the failed shares and the host time per pair.
SEEDS ?= 701-710
RUN_SECONDS ?= 0
ab:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" -a -n "$(METRIC)" || { echo "usage: make ab BASE=<git ref> WORKLOAD=<w> METRIC=<m> [SEEDS=first-last] [RUN_SECONDS=T]" >&2; exit 2; }
	@$(GO) run ./cmd/ab -base "$(BASE)" -workload "$(WORKLOAD)" -metric "$(METRIC)" -seeds "$(SEEDS)" -seconds "$(RUN_SECONDS)"

# Who runs what under internal/ (internal/reach.sh): -cover builds of
# cmd/mc-bench, benchmark and the examples; one -smoke registry run that also
# writes -csv and -json and -verifies its own output, the seven ablations at
# smoke scale, the four benchmark workloads at -seconds 1 with the traced pass,
# the examples; then the tier-1 tests under the same instrumentation. Prints
# per package statements / production / tests-only / nothing; under the table,
# per file and function, the blocks inside production-entered functions that
# neither production nor any test executes (the branches: item 1's target list
# at the granularity it works at), then the blocks there that only tests
# execute (a case or a value no production run takes; the list gates
# nothing); and every function no production run enters beside its class in
# internal/reach.keep.
# Fails when such a function has no line there, when a line there names a
# function that is now reached or gone, and when a function is entered by
# neither production nor any test. About 1 m 15 s on 2 cores.
reach:
	@GO="$(GO)" bash internal/reach.sh

# Heap allocations per operation, one line per layer of the op path. Each
# layer keeps one allocation table, a {name, model, ceiling} row per model;
# its tier-1 ceiling test warms each row, counts it with testing.AllocsPerRun,
# fails it over its ceiling and logs name=count, and its BenchmarkAllocs runs
# the same rows as sub-benchmarks (go test -run '^$' -bench Allocs/<name>).
# The first line per layer is those logs: every pair printed is a gated row,
# and a new allocation on a path fails here. The counts are exact and repeat
# run to run. Then one ns/op line for the kernel's primitives (Timer a sleep
# taken in place, SleepParked one that parks) and the ratio of a process
# wakeup to a callback event, from internal/sim's benchmarks run alone at
# 200 ms each, so no other package's binary shares the cores: printed for the
# eye, gating nothing — nanoseconds on a shared runner gate nothing, but a
# ratio that reads 8:1 one week and 25:1 the next is seen. Then one bytes
# line, the size and the Go size class of each record an operation allocates
# or embeds (core's tier-1 TestRequestRecordSizes logs it): printed, not
# gated — the size pins gate — so a change that moves a record across a class
# shows it here.
ALLOC_PKGS = ./internal/sim ./internal/simnet ./internal/verbs ./internal/core ./internal/replication ./internal/server ./internal/store ./internal/hybridslab ./internal/pagecache ./internal/keytab ./internal/pool ./internal/workload
allocs:
	@out=$$($(GO) test -count=1 -v -run AllocationCeiling $(ALLOC_PKGS) 2>&1) || \
		{ echo "$$out" | grep -vE '^=== |--- PASS|_test\.go:[0-9]+: [A-Za-z0-9]+=[0-9.]+$$|^(PASS|ok )'; exit 1; }; \
	echo "$$out" | awk ' \
		/^ +[a-z_]+_test\.go:[0-9]+: [A-Za-z0-9]+=[0-9.]+$$/ { line = line " " $$2 } \
		/^ok / { n = split($$2, part, "/"); printf "allocs/op  %-12s%s\n", part[n], line; line = "" }'
	@$(GO) test -count=1 -run '^$$' -bench 'Timer|SleepParked|Allocs/^(Handoff|CallbackEvent|Spawn|SpawnRecycled)$$' -benchtime 200ms ./internal/sim | awk ' \
		/^Benchmark/ { name = $$1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$$/, "", name); \
			for (i = 2; i <= NF; i++) if ($$i == "ns/op") ns[name] = $$(i-1) } \
		END { printf "ns/op      %-12s Timer=%s SleepParked=%s Handoff=%s CallbackEvent=%s SpawnRecycled=%s Spawn=%s  Handoff:CallbackEvent=%.0f:1\n", \
			"sim", ns["Timer"], ns["SleepParked"], ns["Allocs/Handoff"], ns["Allocs/CallbackEvent"], ns["Allocs/SpawnRecycled"], ns["Allocs/Spawn"], ns["Allocs/Handoff"] / ns["Allocs/CallbackEvent"] }'
	@$(GO) test -count=1 -run '^TestRequestRecordSizes$$' -v ./internal/core | sed -n 's/^ *alloc_test.go:[0-9]*: \(bytes \)/\1/p'

# Independently settable values per configuration struct under internal/, one
# line each with its pinned count and its fields: the table of the tier-1
# TestConfigSurface (internal/cluster), which fails on a count that moved. A
# value with one setting in use is a constant, not a field.
knobs:
	@status=0; out=$$($(GO) test -count=1 -run '^TestConfigSurface$$' -v ./internal/cluster 2>&1) || status=$$?; \
	echo "$$out" | sed -n 's/^ *config_surface_test.go:[0-9]*: //p'; exit $$status

# The paper's headline claims against the committed BENCH_<id>.json records,
# one row each with its band, measured value and verdict, and the verdict rule
# under them: the table the tier-1 TestClaimsTable (internal/bench) renders and
# holds EXPERIMENTS.md's copy to. It reads the records and runs no simulation.
claims:
	@status=0; out=$$($(GO) test -count=1 -run '^TestClaimsTable$$' -v ./internal/bench 2>&1) || status=$$?; \
	echo "$$out" | sed -n 's/^ *claims_test.go:[0-9]*: \{0,1\}//p'; exit $$status

# Non-test Go lines per internal/ package, one line each, then their total:
# the count a simplification is reported in, and one number to diff between
# two commits. Beside each total, its split into code, comment (a line that is
# only a // comment) and blank lines: a count bought by deleting rationale
# comments, or by packing code denser, shows up as what it is. Last, the
# package's *_test.go lines, so a change that trades test lines for production
# lines shows both sides.
#
# LOC_ROWS prints the rows — "name total code comment blank tests", one per
# package, `total` (internal/ only, so it diffs against every earlier count),
# then the entry points under cmd/ and examples/ — for the tree in the current
# directory; loc and loc-diff share it.
LOC_ROWS = for d in internal/*/ total cmd/ examples/; do \
		case "$$d" in total) all=$$(ls internal/*/*.go);; \
		cmd/|examples/) all=$$(ls $$d*/*.go);; \
		*) all=$$(ls $$d*.go);; esac; \
		files=$$(echo "$$all" | grep -v _test.go); tests=$$(echo "$$all" | grep _test.go | xargs -r cat | wc -l); \
		cat $$files | awk -v name="$${d%/}" -v tests="$$tests" ' \
			/^[ \t]*$$/ { blank++; next } /^[ \t]*\/\// { comment++; next } { code++ } \
			END { print name, code+comment+blank, code, comment, blank, tests }'; \
	done
loc:
	@printf '%-22s %6s %6s %8s %6s %6s\n' package total code comment blank tests; \
	$(LOC_ROWS) | awk '{ printf "%-22s %6d %6d %8d %6d %6d\n", $$1, $$2, $$3, $$4, $$5, $$6 }'

# The same count at another commit and here, side by side:
#
#	make loc-diff BASE=<git ref>
#
# takes a `git archive` snapshot of BASE in a temporary directory (as
# virtual-identity does), counts both trees with loc's rule, and prints per
# package total / code / comment / blank / tests as before -> after (delta),
# skipping packages nothing changed in. A simplification's size claim is this
# printed diff, not a sentence.
loc-diff:
	@test -n "$(BASE)" || { echo "usage: make loc-diff BASE=<git ref>" >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(LOC_ROWS)) > "$$tmp/before.txt"; \
	$(LOC_ROWS) > "$$tmp/after.txt"; \
	echo "loc-diff: $(BASE) -> the working tree, Go lines (before -> after, delta); tests = *_test.go lines"; \
	awk 'function cell(b, a) { return sprintf("%6d ->%6d (%+5d)", b, a, a - b) } \
		NR == FNR { for (i = 2; i <= 6; i++) before[$$1, i] = $$i; seen[$$1] = 1; next } \
		{ same = seen[$$1]; for (i = 2; i <= 6; i++) if (before[$$1, i] != $$i) same = 0; delete seen[$$1]; \
		  if (!same) printf "%-22s total %s  code %s  comment %s  blank %s  tests %s\n", $$1, \
			cell(before[$$1, 2], $$2), cell(before[$$1, 3], $$3), cell(before[$$1, 4], $$4), cell(before[$$1, 5], $$5), cell(before[$$1, 6], $$6) } \
		END { for (name in seen) printf "%-22s gone (was %d lines, %d test lines)\n", name, before[name, 2], before[name, 6] }' \
		"$$tmp/before.txt" "$$tmp/after.txt"

# The pre-merge gate: static analysis, formatting, the counter rule, the
# driver-rig rule and the map-order rule, the full suite under
# the race detector (plus the robustness packages at -count=2), a registry
# smoke run (the ten robustness experiments among its 24), the three examples,
# the golden gate over the committed snapshots, the benchmark's determinism
# gate, the gated vulnerability scan, and who runs what (reach), so a
# function only tests enter fails here as it does in CI. Each thing runs once,
# but reach runs the smoke registry and the suite again under coverage: it
# adds about 80 s on 2 cores.
check: vet fmt counters rigs maporder race race-robustness smoke examples verify benchmark-check vuln reach
