#!/usr/bin/env bash
# make reach: which statements under internal/ does anything but a unit test
# execute? Builds cmd/mc-bench, benchmark and the examples with -cover, runs
# what `make check` and the benchmark driver run — the registry at smoke scale
# (with -csv, -json and -verify on its own output), the ablations, the four
# benchmark workloads, the examples — and the tier-1 tests with the same
# instrumentation, then prints per package
#
#	statements / production / tests-only / nothing
#
# then, per file, the blocks inside production-entered functions that neither
# production nor any test executes (the branches, where the table counts
# statements), the same for the blocks there that only tests execute (a
# branch, a case or a value no production run takes: the list gates nothing),
# and every function no production run entered. Each such
# function must have a line in internal/reach.keep — `pkg.Func  class  who will
# drive it` — and each keep line must name a function that exists and is still
# unreached; an unlisted or stale entry fails the target, naming it. Run from
# the repo root.
set -euo pipefail

GO=${GO:-go}
keep=internal/reach.keep
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/prod" "$tmp/out"
export GOCOVERDIR="$tmp/prod"

for main in cmd/mc-bench benchmark examples/*/; do
	$GO build -cover -o "$tmp/bin/$(basename "$main")" "./$main"
done
ablations=$("$tmp/bin/mc-bench" -list | awk '$1 ~ /^abl-/ { print $1 }')
{
	"$tmp/bin/mc-bench" -smoke -csv "$tmp/out" -json "$tmp/out" -verify "$tmp/out"
	"$tmp/bin/mc-bench" -ops 300 $ablations
	"$tmp/bin/benchmark" -seconds 1 -trace 1 -trace-dir "$tmp/out"
	for ex in examples/*/; do "$tmp/bin/$(basename "$ex")"; done
} >"$tmp/run.log" 2>&1 || { cat "$tmp/run.log" >&2; exit 1; }
$GO tool covdata textfmt -i="$tmp/prod" -pkg=hybridkv/internal/... -o "$tmp/prod.txt"
$GO test -count=1 -coverpkg=./internal/... -coverprofile="$tmp/tests.txt" ./... >"$tmp/test.log" 2>&1 ||
	{ cat "$tmp/test.log" >&2; exit 1; }

# One row per function of a profile: "pkg.[Recv.]Func covered% file line".
# `go tool cover -func` names a method without its receiver; the declaration
# line has it.
funcs() {
	$GO tool cover -func="$1" | awk -F'[:\t ]+' '$1 != "total" {
		file = $1; sub(/^hybridkv\//, "", file)
		if (file != loaded) { for (n = 1; (getline line < file) > 0; n++) src[n] = line; close(file); loaded = file }
		decl = src[$2]; recv = ""
		if (match(decl, /^func \([^)]*\)/)) {
			recv = substr(decl, RSTART + 6, RLENGTH - 7)
			sub(/\[.*$/, "", recv); sub(/^.*[ *]/, "", recv); recv = recv "."
		}
		n = split(file, dir, "/")
		print dir[n-1] "." recv $3, $4 + 0, file, $2
	}'
}
funcs "$tmp/prod.txt" >"$tmp/prod.funcs"
funcs "$tmp/tests.txt" >"$tmp/tests.funcs"

echo "reach: statements under internal/ by who executes them (production = registry smoke + ablations + benchmark + examples)"
awk -F'[: ]' 'FNR == 1 { next }
	{ key = $1 ":" $2; stmts[key] = $3; if (NR == FNR) prod[key] += $4; else test[key] += $4 }
	END {
		for (key in stmts) {
			n = split(key, part, "/"); pkg = part[n-1]
			all[pkg] += stmts[key]; all["total"] += stmts[key]
			kind = prod[key] ? "p" : test[key] ? "t" : "n"
			cnt[pkg, kind] += stmts[key]; cnt["total", kind] += stmts[key]
		}
		for (pkg in all) printf "%-12s %6d %6d %6d %6d  %5.1f%%\n", pkg, all[pkg], cnt[pkg, "p"], cnt[pkg, "t"], cnt[pkg, "n"], 100 * cnt[pkg, "p"] / all[pkg]
	}' "$tmp/prod.txt" "$tmp/tests.txt" | sort -k1,1 | awk '
	BEGIN { printf "%-12s %6s %6s %6s %6s  %s\n", "package", "stmts", "prod", "tests", "none", "prod%" }
	$1 == "total" { total = $0; next } { print } END { print total }'

# The branches: every block no production run executes whose enclosing
# function — the last one declared at or above it in its file — a production
# run entered, classed "none" (no test executes it either) or "tests". Per
# class, per file, then per function, the line ranges.
awk 'FILENAME == ARGV[1] { n = ++fns[$3]; line[$3, n] = $4; name[$3, n] = $2 > 0 ? $1 : ""; next }
	FNR == 1 { next }
	{ stmts[$1] = $2; if (FILENAME == ARGV[2]) prod[$1] += $3; else test[$1] += $3 }
	END {
		for (key in stmts) if (!prod[key]) {
			split(key, part, ":"); file = part[1]; sub(/^hybridkv\//, "", file); split(part[2], at, /[.,]/)
			fn = ""; above = 0
			for (i = 1; i <= fns[file]; i++) if (line[file, i] <= at[1] && line[file, i] > above) { above = line[file, i]; fn = name[file, i] }
			if (fn != "") print file, at[1], at[3], stmts[key], fn, test[key] ? "tests" : "none"
		}
	}' "$tmp/prod.funcs" "$tmp/prod.txt" "$tmp/tests.txt" | sort -k1,1 -k2,2n >"$tmp/blocks.txt"
branches() {
	awk -v class="$1" -v who="$2" '$6 != class { next }
		{ blocks++; all += $4; perfile[$1]++; stmts[$1] += $4
			if (!($1 in order)) { order[$1] = ++files; fileof[files] = $1 }
			if (!(($1, $5) in seen)) { seen[$1, $5] = 1; fnof[$1, ++fns[$1]] = $5 }
			ranges[$1, $5] = ranges[$1, $5] " " ($2 == $3 ? $2 : $2 "-" $3) }
		END {
			printf "reach: %d blocks (%d statements) inside production-entered functions that %s\n", blocks, all, who
			for (f = 1; f <= files; f++) {
				file = fileof[f]
				printf "  %s: %d blocks, %d statements\n", file, perfile[file], stmts[file]
				for (i = 1; i <= fns[file]; i++) printf "    %-40s%s\n", fnof[file, i], ranges[file, fnof[file, i]]
			}
		}' "$tmp/blocks.txt"
}
echo
branches none "neither production nor any test executes"
echo
branches tests "only tests execute"

# Functions no production run entered (a package no program links has no row
# in the production profile at all), against the keep file.
awk 'NR == FNR { if ($2 > 0) reached[$1] = 1; next } !reached[$1] { print $1 }' \
	"$tmp/prod.funcs" "$tmp/tests.funcs" | sort >"$tmp/zero.txt"
awk '$2 == 0 { print $1 }' "$tmp/tests.funcs" | sort | comm -12 - "$tmp/zero.txt" >"$tmp/nothing.txt"
awk 'NF && $1 !~ /^#/ { print $1 }' "$keep" | sort >"$tmp/kept.txt"
echo
echo "reach: $(wc -l <"$tmp/zero.txt") functions no production run enters ($(wc -l <"$tmp/nothing.txt") of them no test enters either), $(wc -l <"$tmp/kept.txt") lines in $keep"
awk 'FILENAME == ARGV[1] { if (NF && $1 !~ /^#/) class[$1] = $2; next }
	{ printf "  %-44s %s\n", $1, ($1 in class) ? class[$1] : "UNLISTED" }' "$keep" "$tmp/zero.txt"
status=0
for f in $(comm -23 "$tmp/zero.txt" "$tmp/kept.txt"); do
	echo "reach: $f is entered by no production run and has no line in $keep" >&2; status=1
done
for f in $(comm -13 "$tmp/zero.txt" "$tmp/kept.txt"); do
	if grep -q "^$f " "$tmp/tests.funcs"; then why="a production run now enters"; else why="no longer exists"; fi
	echo "reach: $keep lists $f, which $why" >&2; status=1
done
for f in $(cat "$tmp/nothing.txt"); do
	echo "reach: $f is entered by no production run and by no test" >&2; status=1
done
awk -v keep="$keep" 'NF && $1 !~ /^#/ && NF < 3 { print "reach: " keep " line " NR " (" $1 ") needs a class and a driver"; bad = 1 }
	END { exit bad }' "$keep" >&2 || status=1
exit $status
