GO ?= go

.PHONY: build test vet fmt race race-robustness smoke robustness examples verify vuln benchmark-check virtual-identity reach allocs loc loc-diff fuzz check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt over the whole tree must have nothing to say.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

race:
	$(GO) test -race ./...

# The concurrency-heavy robustness packages under the race detector at
# -count=2: the client guard/hedge/cancel races and its request-end matrix
# (every way a request ends, against everywhere its attempts can stand when
# it does), the bypass READ-vs-
# eviction-vs-crash soak in cluster, the replication forward/ack/scrub
# engine (TestEngineNeverWaitsOnTheStore: acks and forwards against a wedged
# store call, a forward queued across a crash) and its install matrix (every
# way a version of a key reaches a store, against everything going on there
# when it does — the apply pool and the background lane included), the
# server's path matrix (every way an arrival reaches the storage phase, crashed at each
# point), the hybrid slab's region-writer matrix (every way a region reaches
# the SSD, refused, restarted and torn at each point), the store's command
# races (four workers on one key: get vs set, and the conditional and
# read-modify-write commands), and the history checker. A named subset of
# `race`, kept separate so a detector hit points straight at the robustness
# suite (and so it stays cheap enough to run on every edit).
race-robustness:
	$(GO) test -race -count=2 ./internal/core ./internal/cluster ./internal/replication ./internal/server ./internal/hybridslab ./internal/store ./internal/history

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
# fuzz_test.go): each target for a short fixed time, one `go test` each because
# -fuzz takes exactly one. The seed corpus already runs under plain `go test`;
# this explores from it, so it is not part of `check` — a finding lands in the
# package's testdata/fuzz/ as a new seed, to be committed with its fix.
FUZZTIME ?= 10s
fuzz:
	@for f in FuzzUnmarshalHeader FuzzUnmarshalResponse FuzzUnmarshalBatch; do \
		$(GO) test ./internal/protocol -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) || exit 1; \
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
# there, then runs it from the working tree with -verify against that file.
# The records hold only virtual-clock metrics, and a commit is self-identical
# run to run, so one differing value is a behaviour change. EXCEPT names the
# experiments a model change is meant to move: their differing records are
# printed as the expected differences (experiment, metric, BASE, working
# tree) and do not fail the target; a differing record of any other
# experiment still does.
virtual-identity:
	@test -n "$(BASE)" || { echo "usage: make virtual-identity BASE=<git ref> [EXCEPT=\"exp ...\"]" >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/mc-bench-base" ./cmd/mc-bench); \
	$(GO) build -o "$$tmp/mc-bench-head" ./cmd/mc-bench; \
	"$$tmp/mc-bench-base" -smoke -json "$$tmp/base.json" >/dev/null; \
	"$$tmp/mc-bench-head" -smoke -verify "$$tmp/base.json" >"$$tmp/verify.txt" 2>"$$tmp/verify.err" || \
		grep -q '^verify:' "$$tmp/verify.txt" || { cat "$$tmp/verify.err" >&2; exit 1; }; \
	expected() { for e in $(EXCEPT); do [ "$$e" = "$$1" ] && return 0; done; return 1; }; \
	bad=0; moved=0; \
	while read -r exp rest; do \
		if [ "$$exp" = "verify:" ]; then summary="$$rest"; \
		elif expected "$$exp"; then moved=$$((moved+1)); echo "  expected   $$exp $$rest"; \
		else bad=$$((bad+1)); echo "  UNEXPECTED $$exp $$rest"; fi; \
	done < "$$tmp/verify.txt"; \
	echo "virtual-identity: $(BASE) vs the working tree: $$summary; $$moved in EXCEPT=\"$(EXCEPT)\", $$bad outside it"; \
	[ "$$bad" -eq 0 ]

# Who runs what under internal/ (internal/reach.sh): -cover builds of
# cmd/mc-bench, benchmark and the examples; one -smoke registry run that also
# writes -csv and -json and -verifies its own output, the seven ablations at
# smoke scale, the four benchmark workloads at -seconds 1 with the traced pass,
# the examples; then the tier-1 tests under the same instrumentation. Prints
# per package statements / production / tests-only / nothing; under the table,
# per file and function, the blocks inside production-entered functions that
# neither production nor any test executes (the branches: item 1's target list
# at the granularity it works at); and every function no production run enters
# beside its class in internal/reach.keep.
# Fails when such a function has no line there, when a line there names a
# function that is now reached or gone, and when a function is entered by
# neither production nor any test. 2 m 20 s here on 2 cores: the covered
# smoke run 66 s, the covered tests 32 s, the ablations 10 s, the builds, the
# benchmark and the examples the rest.
reach:
	@GO="$(GO)" bash internal/reach.sh

# Heap allocations per operation, one line per layer of the op path: first the
# tier-1 ceiling tests of those layers (testing.AllocsPerRun on a warmed rig —
# a new allocation on the path fails here), then every benchmark of the layer
# as name=allocs/op. The counts are exact and repeat run to run. Last, from the
# same run, one ns/op line for the kernel's primitives and the ratio of a
# process wakeup to a callback event: printed for the eye, gating nothing —
# nanoseconds on a shared runner gate nothing, but a ratio that reads 8:1 one
# week and 25:1 the next is seen.
ALLOC_PKGS = ./internal/sim ./internal/simnet ./internal/verbs ./internal/core ./internal/replication ./internal/hybridslab ./internal/pagecache
allocs:
	@out=$$($(GO) test -count=1 -run AllocationCeiling $(ALLOC_PKGS) 2>&1) || { echo "$$out"; exit 1; }
	@$(GO) test -run '^$$' -bench . -benchmem -benchtime 2000x $(ALLOC_PKGS) | awk ' \
		function flush() { if (layer != "") printf "allocs/op  %-12s%s\n", layer, line } \
		/^pkg:/ { flush(); n = split($$2, part, "/"); layer = part[n]; line = "" } \
		/^Benchmark/ { name = $$1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$$/, "", name); \
			for (i = 2; i <= NF; i++) { if ($$i == "allocs/op") line = line " " name "=" $$(i-1); \
				if ($$i == "ns/op" && layer == "sim") ns[name] = $$(i-1) } } \
		END { flush(); printf "ns/op      %-12s Timer=%s Handoff=%s CallbackEvent=%s Go=%s Spawn=%s  Handoff:CallbackEvent=%.0f:1\n", \
			"sim", ns["Timer"], ns["Handoff"], ns["CallbackEvent"], ns["Go"], ns["Spawn"], ns["Handoff"] / ns["CallbackEvent"] }'

# Non-test Go lines per internal/ package, one line each, then their total:
# the count a simplification is reported in, and one number to diff between
# two commits. Beside each total, its split into code, comment (a line that is
# only a // comment) and blank lines: a count bought by deleting rationale
# comments, or by packing code denser, shows up as what it is.
#
# LOC_ROWS prints the rows — "name total code comment blank", one per package,
# `total` (internal/ only, so it diffs against every earlier count), then the
# entry points under cmd/ and examples/ — for the tree in the current
# directory; loc and loc-diff share it.
LOC_ROWS = for d in internal/*/ total cmd/ examples/; do \
		case "$$d" in total) files=$$(ls internal/*/*.go | grep -v _test.go);; \
		cmd/|examples/) files=$$(ls $$d*/*.go | grep -v _test.go);; \
		*) files=$$(ls $$d*.go | grep -v _test.go);; esac; \
		cat $$files | awk -v name="$${d%/}" ' \
			/^[ \t]*$$/ { blank++; next } /^[ \t]*\/\// { comment++; next } { code++ } \
			END { print name, code+comment+blank, code, comment, blank }'; \
	done
loc:
	@printf '%-22s %6s %6s %8s %6s\n' package total code comment blank; \
	$(LOC_ROWS) | awk '{ printf "%-22s %6d %6d %8d %6d\n", $$1, $$2, $$3, $$4, $$5 }'

# The same count at another commit and here, side by side:
#
#	make loc-diff BASE=<git ref>
#
# takes a `git archive` snapshot of BASE in a temporary directory (as
# virtual-identity does), counts both trees with loc's rule, and prints per
# package total / code / comment / blank as before -> after (delta), skipping
# packages nothing changed in. A simplification's size claim is this printed
# diff, not a sentence.
loc-diff:
	@test -n "$(BASE)" || { echo "usage: make loc-diff BASE=<git ref>" >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(LOC_ROWS)) > "$$tmp/before.txt"; \
	$(LOC_ROWS) > "$$tmp/after.txt"; \
	echo "loc-diff: $(BASE) -> the working tree, non-test Go lines (before -> after, delta)"; \
	awk 'function cell(b, a) { return sprintf("%6d ->%6d (%+5d)", b, a, a - b) } \
		NR == FNR { for (i = 2; i <= 5; i++) before[$$1, i] = $$i; seen[$$1] = 1; next } \
		{ same = seen[$$1]; for (i = 2; i <= 5; i++) if (before[$$1, i] != $$i) same = 0; delete seen[$$1]; \
		  if (!same) printf "%-22s total %s  code %s  comment %s  blank %s\n", $$1, \
			cell(before[$$1, 2], $$2), cell(before[$$1, 3], $$3), cell(before[$$1, 4], $$4), cell(before[$$1, 5], $$5) } \
		END { for (name in seen) printf "%-22s gone (was %d lines)\n", name, before[name, 2] }' \
		"$$tmp/before.txt" "$$tmp/after.txt"

# The pre-merge gate: static analysis and formatting, the full suite under
# the race detector (plus the robustness packages at -count=2), a registry
# smoke run (the ten robustness experiments among its 24), the three examples,
# the golden gate over the committed snapshots, the benchmark's determinism
# gate, and the gated vulnerability scan. Each thing runs once.
check: vet fmt race race-robustness smoke examples verify benchmark-check vuln
