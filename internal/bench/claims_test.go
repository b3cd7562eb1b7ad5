package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The paper's headline claims, each declared once: its text, the paper's
// band, the values it is judged on (read from records, of any experiment),
// the band its quick-scale check holds a reduced-op run to, and the note a ✗
// verdict prints. TestClaimsTable renders the table from the committed
// BENCH_<id>.json records into EXPERIMENTS.md; TestClaimsAtQuickScale checks
// the quick bands. A row is cited elsewhere by its number, "claims row N".
type claim struct {
	text  string                     // the claim, with the figure it comes from
	paper string                     // the paper's band, as parseBand reads it
	value func(r *records) []float64 // the measured values the verdict judges
	quick string                     // the band at quick(); "" for a row no quick run checks
	note  string                     // why the row misses: printed after ✗, empty for ✓
}

var claims = []claim{{
	text: "RDMA vs IPoIB latency, data fits (Fig 1a / §VI-C)", paper: "≈3.6×", quick: "2.5–6",
	value: keys("fig1a", "ratio.ipoib_vs_rdma"),
}, {
	text: "Hybrid ≪ in-memory designs when data exceeds memory (Fig 1b)", paper: "large", quick: "≥2",
	value: func(r *records) []float64 {
		hyb := r.v("fig1b", "H-RDMA-Def.avg_us")
		return []float64{r.v("fig1b", "RDMA-Mem.avg_us") / hyb, r.v("fig1b", "IPoIB-Mem.avg_us") / hyb}
	},
}, {
	text: "H-RDMA-Def degradation, fits → exceeds (Fig 1)", paper: "15–17×", quick: "≥1.5",
	value: func(r *records) []float64 {
		return []float64{r.v("fig1b", "H-RDMA-Def.avg_us") / r.v("fig1a", "H-RDMA-Def.avg_us")}
	},
	note: "shape holds, factor smaller (Deviations #1)",
}, {
	text: "Opt-Block vs Def (adaptive slab I/O, Fig 6b)", paper: "up to 2×", quick: "1.4–4",
	value: keys("fig6b", "improvement.optblock_vs_def"),
	note:  "ours larger: Def's synchronous flush barrier, which adaptive I/O removes, costs more here (as Deviations #3)",
}, {
	text: "NonB-i/b vs Def (Fig 6b)", paper: "10–16×", quick: "7–25",
	value: keys("fig6b", "improvement.nonb_i_vs_def", "improvement.nonb_b_vs_def"),
}, {
	text: "NonB vs Opt-Block (Fig 6b)", paper: "3.3–8×", quick: "2.5–11",
	value: keys("fig6b", "improvement.nonb_i_vs_optblock"),
}, {
	// The paper states this factor "even in-memory", so it is read where the
	// data fits; fig6b's factor is mostly IPoIB's miss penalty.
	text: "NonB vs IPoIB-Mem, data fits (Fig 6a)", paper: "up to 3.6×",
	value: keys("fig6a", "improvement.nonb_i_vs_ipoib"),
	note:  "ours pipelines deeper (Deviations #2)",
}, {
	text: "Overlap: NonB-i, both mixes (Fig 7a)", paper: "up to 92%", quick: "≥70",
	value: keys("fig7a", "RDMA-NonB-i.read-only.overlap_pct", "RDMA-NonB-i.write-heavy.overlap_pct"),
	note:  "read-only overlaps slightly more than the paper's best",
}, {
	text: "Overlap: NonB-b read-only (Fig 7a)", paper: "≈89%",
	value: keys("fig7a", "RDMA-NonB-b.read-only.overlap_pct"),
}, {
	text: "Overlap: NonB-b write-heavy (Fig 7a)", paper: "<12%", quick: "≤25",
	value: keys("fig7a", "RDMA-NonB-b.write-heavy.overlap_pct"),
}, {
	text: "Overlap: blocking API (Fig 7a)", paper: "≈0%", quick: "≤5",
	value: keys("fig7a", "RDMA-Block.read-only.overlap_pct", "RDMA-Block.write-heavy.overlap_pct"),
}, {
	text: "NonB-i vs both blocking designs across kv sizes (Fig 7b)", paper: "65–89%",
	value: func(r *records) (out []float64) {
		for _, kb := range fig7bKB {
			size := fmt.Sprintf("%dKB", kb)
			out = append(out, r.v("fig7b", "improvement_pct.nonb_i_vs_def."+size),
				gainPct(r.v("fig7b", "H-RDMA-Opt-NonB-i."+size+"_us"), r.v("fig7b", "H-RDMA-Opt-Block."+size+"_us")))
		}
		return out
	},
	note: "above the band against Def at small sizes, below it against Opt-Block at 128 KB, where link serialization bounds the pipeline (Fig 7(b) below)",
}, {
	text: "Throughput: NonB vs Opt-Block (Fig 7c)", paper: "2–2.5×",
	value: keys("fig7c", "speedup.nonb_i_vs_block", "speedup.nonb_b_vs_block"),
	note:  "below since dead slab slots are punched out of the page cache: the figure's span runs to the end of background writeback, and Opt-Block's writeback tail vanished (Fig 7(c) below)",
}, {
	text: "Throughput: adaptive I/O alone (Fig 7c)", paper: "≈1.3×",
	value: keys("fig7c", "speedup.optblock_vs_def"),
	note:  "ours larger (Deviations #3; Fig 7(c) below)",
}, {
	text: "Opt-Block vs Def-Block on SATA (Fig 8a)", paper: "54–83%", quick: "≥40",
	value: keys("fig8a", "improvement_pct.opt_vs_def.SATA.read-only", "improvement_pct.opt_vs_def.SATA.write-heavy"),
}, {
	text: "NonB-i vs both blocking designs (Fig 8a)", paper: "48–80%", quick: "≥48",
	value: func(r *records) (out []float64) {
		for _, tb := range testbeds {
			for _, mix := range readMixes {
				at := tb.ssd + "." + mix.name
				out = append(out, r.v("fig8a", "improvement_pct.nonb_i_vs_def."+at),
					gainPct(r.v("fig8a", at+".H-RDMA-Opt-NonB-i_us"), r.v("fig8a", at+".H-RDMA-Opt-Block_us")))
			}
		}
		return out
	},
	note: "ours gains more than the paper over both designs on most devices and mixes",
}, {
	text: "SATA gains exceed NVMe gains, Opt-Block vs Def (Fig 8a)", paper: "yes", quick: "yes",
	value: func(r *records) (out []float64) {
		for _, mix := range readMixes {
			sata, nvme := r.v("fig8a", "improvement_pct.opt_vs_def.SATA."+mix.name), r.v("fig8a", "improvement_pct.opt_vs_def.NVMe."+mix.name)
			out = append(out, boolMetric(sata > nvme))
		}
		return out
	},
}, {
	text: "Bursty I/O block access latency, NonB-i vs Opt-Block (Fig 8b)", paper: "79–85%", quick: ">0",
	value: func(r *records) (out []float64) {
		for _, tb := range testbeds {
			for _, mb := range []string{"2MB", "16MB"} {
				out = append(out, r.v("fig8b", "improvement_pct.access."+tb.ssd+"."+mb))
			}
		}
		return out
	},
	note: "below except 16 MB blocks on NVMe: sustained block writes are bound by the drive's write bandwidth for any API (Fig 8(b) below)",
}, {
	text: "Larger blocks benefit more (Fig 8b)", paper: "yes", quick: "yes",
	value: func(r *records) (out []float64) {
		for _, tb := range testbeds {
			small, large := r.v("fig8b", "improvement_pct.access."+tb.ssd+".2MB"), r.v("fig8b", "improvement_pct.access."+tb.ssd+".16MB")
			out = append(out, boolMetric(large >= small))
		}
		return out
	},
}, {
	text: "Fig 4 crossover: mmap small / cached large / direct worst", paper: "yes", quick: "yes",
	value: func(r *records) []float64 {
		directWorst := true
		for _, kb := range []string{"2KB", "8KB", "32KB", "128KB", "512KB", "1024KB"} {
			d := r.v("fig4", "direct."+kb+"_us")
			directWorst = directWorst && d > r.v("fig4", "cached."+kb+"_us") && d > r.v("fig4", "mmap."+kb+"_us")
		}
		return []float64{r.v("fig4", "crossover.small_mmap_wins"), r.v("fig4", "crossover.large_cached_wins"), boolMetric(directWorst)}
	},
}}

// keys is a claim whose values are records of one experiment, as they are.
func keys(exp string, ks ...string) func(*records) []float64 {
	return func(r *records) (out []float64) {
		for _, k := range ks {
			out = append(out, r.v(exp, k))
		}
		return out
	}
}

// gainPct is how much lower now is than then, in percent: the derive
// functions' improvement_pct, for the pairs they do not record.
func gainPct(now, then float64) float64 { return 100 * (1 - now/then) }

// verdictRule is printed under the table; parseBand implements it.
const verdictRule = "Verdicts follow one rule: ✓ iff every measured value lies inside the paper's band, " +
	"where \"a–b\" is a ≤ v ≤ b, \"≈x\" is x ± 15 %, \"up to x\" is v ≤ x, \"<x\" is v < x, " +
	"\"large\" is v ≥ 2× and \"yes\" is a predicate that holds for every value. " +
	"The values are the committed `BENCH_<id>.json` records, at three significant digits; " +
	"several are shown as their min–max. Rows are declared in `internal/bench/claims_test.go`."

// band is a closed interval of values and the unit the table prints them in.
type band struct {
	lo, hi float64
	unit   string // "×", "%", "" or "yes" (the values are 0/1 predicates)
}

// parseBand reads a band as the table prints it, by verdictRule: "a–b",
// "≈x", "up to x", "<x", "large" and "yes", and for quick bands also "≤x",
// "≥x" and ">x". A strict bound is the next float inside it. A trailing "×"
// or "%" is the unit and bounds nothing.
func parseBand(s string) (band, error) {
	switch s {
	case "yes":
		return band{1, 1, "yes"}, nil
	case "large":
		return band{2, math.Inf(1), "×"}, nil
	}
	var b band
	body := s
	for _, u := range []string{"×", "%"} {
		if t, ok := strings.CutSuffix(body, u); ok {
			body, b.unit = t, u
		}
	}
	num := func(t string) (float64, error) { return strconv.ParseFloat(t, 64) }
	lo, hi, ok := strings.Cut(body, "–")
	var x float64
	var err error
	switch {
	case ok:
		if b.lo, err = num(lo); err == nil {
			b.hi, err = num(hi)
		}
	case strings.HasPrefix(body, "≈"):
		x, err = num(strings.TrimPrefix(body, "≈"))
		b.lo, b.hi = 0.85*x, 1.15*x
	case strings.HasPrefix(body, "up to "), strings.HasPrefix(body, "≤"):
		x, err = num(strings.TrimPrefix(strings.TrimPrefix(body, "up to "), "≤"))
		b.lo, b.hi = math.Inf(-1), x
	case strings.HasPrefix(body, "<"):
		x, err = num(strings.TrimPrefix(body, "<"))
		b.lo, b.hi = math.Inf(-1), math.Nextafter(x, math.Inf(-1))
	case strings.HasPrefix(body, "≥"):
		x, err = num(strings.TrimPrefix(body, "≥"))
		b.lo, b.hi = x, math.Inf(1)
	case strings.HasPrefix(body, ">"):
		x, err = num(strings.TrimPrefix(body, ">"))
		b.lo, b.hi = math.Nextafter(x, math.Inf(1)), math.Inf(1)
	default:
		err = fmt.Errorf("no band form")
	}
	if err != nil {
		return band{}, fmt.Errorf("band %q: %v", s, err)
	}
	return b, nil
}

// holds reports whether there are values and every one lies inside b.
func (b band) holds(vals []float64) bool {
	for _, v := range vals {
		if !(v >= b.lo && v <= b.hi) {
			return false
		}
	}
	return len(vals) > 0
}

// show is the measured cell: yes/no for a predicate, else the value or the
// values' min–max in b's unit.
func (b band) show(vals []float64) string {
	if b.unit == "yes" {
		if b.holds(vals) {
			return "yes"
		}
		return "no"
	}
	lo, hi := slices.Min(vals), slices.Max(vals)
	if lo == hi {
		return sig3(lo) + b.unit
	}
	return sig3(lo) + "–" + sig3(hi) + b.unit
}

// sig3 prints v at three significant digits, never in exponent form.
func sig3(v float64) string {
	if v == 0 {
		return "0"
	}
	return strconv.FormatFloat(v, 'f', max(0, 2-int(math.Floor(math.Log10(math.Abs(v))))), 64)
}

// records are the values claims read, by experiment and key, fetched one
// experiment at a time by load. A key an experiment lacks is an error naming
// both; v keeps the first such error and reads NaN after it.
type records struct {
	load func(exp string) (map[string]float64, error)
	exps map[string]map[string]float64
	err  error
}

func (r *records) v(exp, key string) float64 {
	if r.err != nil {
		return math.NaN()
	}
	m, ok := r.exps[exp]
	if !ok {
		var err error
		if m, err = r.load(exp); err != nil {
			r.err = fmt.Errorf("%s record %q: %v", exp, key, err)
			return math.NaN()
		}
		if r.exps == nil {
			r.exps = map[string]map[string]float64{}
		}
		r.exps[exp] = m
	}
	v, err := lookup(exp, m, key)
	if err != nil {
		r.err = err
		return math.NaN()
	}
	return v
}

// measure returns c's values read from r, or the first record r lacked.
func (c claim) measure(r *records) ([]float64, error) {
	r.err = nil
	vals := c.value(r)
	return vals, r.err
}

// committedRecords reads the BENCH_<id>.json records at the repo root.
func committedRecords() *records {
	return &records{load: func(exp string) (map[string]float64, error) {
		f, err := os.Open("../../BENCH_" + exp + ".json")
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var recs []record
		if err := json.NewDecoder(f).Decode(&recs); err != nil {
			return nil, fmt.Errorf("BENCH_%s.json: %v", exp, err)
		}
		m := map[string]float64{}
		for _, rec := range recs {
			m[rec.key()] = rec.Value
		}
		return m, nil
	}}
}

// renderClaims renders the claims table from r, numbered, with verdictRule
// under it.
func renderClaims(cs []claim, r *records) (string, error) {
	var b strings.Builder
	b.WriteString("| # | Claim (paper) | Paper | Measured | Verdict |\n|---|---|---|---|---|\n")
	for i, c := range cs {
		paper, err := parseBand(c.paper)
		if err != nil {
			return "", fmt.Errorf("claim %d: %v", i+1, err)
		}
		vals, err := c.measure(r)
		if err != nil {
			return "", fmt.Errorf("claim %d (%s): %v", i+1, c.text, err)
		}
		verdict := "✓"
		if !paper.holds(vals) {
			verdict = strings.TrimSpace("✗ " + c.note)
		}
		fmt.Fprintf(&b, "| %d | %s | %s | **%s** | %s |\n", i+1, c.text, c.paper, paper.show(vals), verdict)
	}
	b.WriteString("\n" + verdictRule + "\n")
	return b.String(), nil
}

const claimsBegin, claimsEnd = "<!-- claims:begin -->\n", "<!-- claims:end -->"

// TestClaimsTable renders the claims table from the committed records (no
// simulation runs) and holds EXPERIMENTS.md's copy between the claims
// markers to it, byte for byte; a row whose verdict is ✗ must say why, and a
// ✓ row must not. Under -v it logs the table: `make claims` prints it.
func TestClaimsTable(t *testing.T) {
	r := committedRecords()
	got, err := renderClaims(claims, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		t.Log(line)
	}
	for i, c := range claims {
		paper, _ := parseBand(c.paper)
		vals, _ := c.measure(r)
		if ok := paper.holds(vals); ok != (c.note == "") {
			t.Errorf("claim %d (%s): verdict ✓ is %v but its note is %q: a ✗ row says why, a ✓ row says nothing", i+1, c.text, ok, c.note)
		}
	}
	checkCopy(t, "claims table", claimsBegin, claimsEnd, got)
}

// checkCopy holds EXPERIMENTS.md's text between the markers begin and end to
// want, byte for byte, and names the first line that differs.
func checkCopy(t *testing.T, what, begin, end, want string) {
	t.Helper()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok1 := strings.Cut(string(doc), begin)
	have, _, ok2 := strings.Cut(rest, end)
	if !ok1 || !ok2 {
		t.Fatalf("EXPERIMENTS.md has no %q … %q block", strings.TrimSpace(begin), end)
	}
	if have != want {
		haveLines, wantLines := strings.Split(have, "\n"), strings.Split(want, "\n")
		i := 0
		for i < len(haveLines)-1 && i < len(wantLines)-1 && haveLines[i] == wantLines[i] {
			i++
		}
		t.Errorf("EXPERIMENTS.md's %s differs from the committed records, first at %q; between the markers it should read:\n%s", what, wantLines[i], want)
	}
}

// renderFig1 renders EXPERIMENTS.md's Figure 1 table from r: each design's
// mean Set / Get latency with the data fitting in memory (fig1a) and
// exceeding it (fig1b), at one decimal.
func renderFig1(r *records) (string, error) {
	var b strings.Builder
	b.WriteString("| design | fits: Set/Get µs | exceeds: Set/Get µs |\n|---|---|---|\n")
	r.err = nil
	for _, d := range []string{"IPoIB-Mem", "RDMA-Mem", "H-RDMA-Def"} {
		fmt.Fprintf(&b, "| %s | %.1f / %.1f | %.1f / %.1f |\n", d,
			r.v("fig1a", d+".set_us"), r.v("fig1a", d+".get_us"),
			r.v("fig1b", d+".set_us"), r.v("fig1b", d+".get_us"))
	}
	return b.String(), r.err
}

// renderFig8a renders EXPERIMENTS.md's Figure 8(a) table from r: each
// design's mean latency on SATA (Cluster A) and NVMe (Cluster B), read-only
// and write-heavy, at one decimal; then the sentence giving Opt-Block's gain
// over Def-Block per drive and mix.
func renderFig8a(r *records) (string, error) {
	drives, mixes := []string{"SATA", "NVMe"}, []string{"read-only", "write-heavy"}
	var b strings.Builder
	b.WriteString("| design | SATA ro | SATA wh | NVMe ro | NVMe wh |\n|---|---|---|---|---|\n")
	r.err = nil
	for _, d := range []string{"Def-Block", "Opt-Block", "NonB-b", "NonB-i"} {
		design := "H-RDMA-" + strings.Replace(d, "NonB", "Opt-NonB", 1)
		fmt.Fprintf(&b, "| %s |", d)
		for _, drive := range drives {
			for _, mix := range mixes {
				fmt.Fprintf(&b, " %.1f |", r.v("fig8a", drive+"."+mix+"."+design+"_us"))
			}
		}
		b.WriteString("\n")
	}
	gain := func(drive, mix string) float64 { return r.v("fig8a", "improvement_pct.opt_vs_def."+drive+"."+mix) }
	fmt.Fprintf(&b, "\nOpt-vs-Def gains: SATA %.1f%%/%.1f%%, NVMe %.1f%%/%.1f%% — inside the paper's\n", gain("SATA", mixes[0]), gain("SATA", mixes[1]), gain("NVMe", mixes[0]), gain("NVMe", mixes[1]))
	b.WriteString("band on SATA (claims row 15) and, as the paper reports, smaller on NVMe\n" +
		"(row 17) because the device itself is an order of magnitude faster.\n")
	return b.String(), r.err
}

// renderFig4 renders EXPERIMENTS.md's Figure 4 table from r: each eviction
// I/O scheme's mean write time per value size, at three significant digits,
// the fastest scheme of each size in bold.
func renderFig4(r *records) (string, error) {
	var b strings.Builder
	b.WriteString("| size | direct µs | cached µs | mmap µs |\n|---|---|---|---|\n")
	r.err = nil
	for _, kb := range []int{2, 8, 32, 128, 512, 1024} {
		size := fmt.Sprintf("%d KB", kb)
		if kb == 1024 {
			size = "1 MB"
		}
		var us []float64
		for _, scheme := range []string{"direct", "cached", "mmap"} {
			us = append(us, r.v("fig4", fmt.Sprintf("%s.%dKB_us", scheme, kb)))
		}
		fmt.Fprintf(&b, "| %s |", size)
		for _, v := range us {
			if v == slices.Min(us) {
				fmt.Fprintf(&b, " **%s** |", sig3(v))
			} else {
				fmt.Fprintf(&b, " %s |", sig3(v))
			}
		}
		b.WriteString("\n")
	}
	return b.String(), r.err
}

// renderFig7b renders EXPERIMENTS.md's Figure 7(b) table from r: each
// design's mean latency per kv size, at three significant digits, and
// NonB-i's gain over Def.
func renderFig7b(r *records) (string, error) {
	var b strings.Builder
	b.WriteString("| kv | Def | Opt-Block | NonB-b | NonB-i | NonB-i gain |\n|---|---|---|---|---|---|\n")
	r.err = nil
	for _, kb := range []int{1, 4, 16, 64, 128} {
		fmt.Fprintf(&b, "| %d KB |", kb)
		for _, d := range []string{"Def", "Opt-Block", "Opt-NonB-b", "Opt-NonB-i"} {
			fmt.Fprintf(&b, " %s |", sig3(r.v("fig7b", fmt.Sprintf("H-RDMA-%s.%dKB_us", d, kb))))
		}
		fmt.Fprintf(&b, " %.1f%% |\n", r.v("fig7b", fmt.Sprintf("improvement_pct.nonb_i_vs_def.%dKB", kb)))
	}
	return b.String(), r.err
}

// renderFig7c renders EXPERIMENTS.md's Figure 7(c) table from r, each
// design's aggregate throughput in whole operations per second, and the
// speedups claims rows 13 and 14 judge.
func renderFig7c(r *records) (string, error) {
	var b strings.Builder
	b.WriteString("| design | ops/sec |\n|---|---|\n")
	r.err = nil
	for _, d := range []string{"Def-Block", "Opt-Block", "Opt-NonB-b", "Opt-NonB-i"} {
		ops := strconv.FormatFloat(r.v("fig7c", "H-RDMA-"+d+".ops_per_sec"), 'f', 0, 64)
		for i := len(ops) - 3; i > 0; i -= 3 {
			ops = ops[:i] + "," + ops[i:]
		}
		fmt.Fprintf(&b, "| H-RDMA-%s | %s |\n", d, ops)
	}
	fmt.Fprintf(&b, "\nNonB = %.2f–%.2f× over Opt-Block (claims row 13). Adaptive I/O alone =\n%.2f× over Def (row 14; Deviations #3).\n",
		r.v("fig7c", "speedup.nonb_b_vs_block"), r.v("fig7c", "speedup.nonb_i_vs_block"), r.v("fig7c", "speedup.optblock_vs_def"))
	return b.String(), r.err
}

// renderFig8b renders EXPERIMENTS.md's Figure 8(b) table from r: a block's
// access time — its write phase plus its read phase — per design, drive and
// block size, at three significant digits, and NonB-i's access gain.
func renderFig8b(r *records) (string, error) {
	var b strings.Builder
	b.WriteString("| | Opt-Block | NonB-i | improvement |\n|---|---|---|---|\n")
	r.err = nil
	for _, at := range []string{"SATA.2MB", "SATA.16MB", "NVMe.2MB", "NVMe.16MB"} {
		drive, size, _ := strings.Cut(at, ".")
		fmt.Fprintf(&b, "| %s %s MB |", drive, strings.TrimSuffix(size, "MB"))
		for _, d := range []string{"Block", "NonB-i"} {
			phase := func(p string) float64 { return r.v("fig8b", at+".H-RDMA-Opt-"+d+"."+p+"_ms") }
			fmt.Fprintf(&b, " %s |", sig3(phase("write")+phase("read")))
		}
		fmt.Fprintf(&b, " %.1f%% |\n", r.v("fig8b", "improvement_pct.access."+at))
	}
	return b.String(), r.err
}

// TestFigureTables renders the tables of Figures 1, 4, 7(b), 7(c), 8(a) and
// 8(b) from the committed records (no simulation runs) and holds
// EXPERIMENTS.md's copy of each, between its own markers, to it, byte for
// byte.
func TestFigureTables(t *testing.T) {
	for _, fig := range []struct {
		id     string
		render func(*records) (string, error)
	}{
		{"fig1", renderFig1}, {"fig4", renderFig4}, {"fig7b", renderFig7b},
		{"fig7c", renderFig7c}, {"fig8a", renderFig8a}, {"fig8b", renderFig8b},
	} {
		t.Run(fig.id, func(t *testing.T) {
			got, err := fig.render(committedRecords())
			if err != nil {
				t.Fatal(err)
			}
			checkCopy(t, fig.id+" table", "<!-- "+fig.id+":begin -->\n", "<!-- "+fig.id+":end -->", got)
		})
	}
}

// TestClaimsAtQuickScale holds each claim that declares a quick band to it,
// on the reduced-op runs the shape tests share (runExp at quick()). A claim
// with no quick band runs nothing here.
func TestClaimsAtQuickScale(t *testing.T) {
	r := &records{load: func(exp string) (map[string]float64, error) { return runExp(t, exp, quick()).Metrics, nil }}
	for i, c := range claims {
		if c.quick == "" {
			continue
		}
		b, err := parseBand(c.quick)
		if err != nil {
			t.Fatalf("claim %d: %v", i+1, err)
		}
		vals, err := c.measure(r)
		if err != nil {
			t.Fatalf("claim %d (%s): %v", i+1, c.text, err)
		}
		if !b.holds(vals) {
			t.Errorf("claim %d (%s): quick run measured %v, want every value in %s", i+1, c.text, vals, c.quick)
		}
	}
}

// The verdict rule at each edge of each band form, and one float outside it.
func TestBandRule(t *testing.T) {
	below, above := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }, func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	for _, c := range []struct {
		band string
		in   []float64
		out  []float64
	}{
		{"5–7×", []float64{5, 6, 7}, []float64{below(5), above(7)}},
		{"≈4.2×", []float64{4.2 * 0.85, 4.2, 4.2 * 1.15}, []float64{below(4.2 * 0.85), above(4.2 * 1.15)}},
		{"≈0×", []float64{0}, []float64{above(0), below(0)}},
		{"up to 3×", []float64{math.Inf(-1), 3}, []float64{above(3)}},
		{"≤25", []float64{25}, []float64{above(25)}},
		{"<15%", []float64{below(15)}, []float64{15}},
		{"≥1.5", []float64{1.5, math.Inf(1)}, []float64{below(1.5)}},
		{">0", []float64{above(0)}, []float64{0}},
		{"large", []float64{2}, []float64{below(2)}},
		{"yes", []float64{1}, []float64{0}},
	} {
		b, err := parseBand(c.band)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range c.in {
			if !b.holds([]float64{v}) {
				t.Errorf("%s: %v is outside", c.band, v)
			}
		}
		for _, v := range append(c.out, math.NaN()) {
			if b.holds([]float64{v}) || b.holds([]float64{c.in[0], v}) {
				t.Errorf("%s: %v is inside", c.band, v)
			}
		}
		if b.holds(nil) {
			t.Errorf("%s: no values hold", c.band)
		}
	}
	for _, s := range []string{"", "about 3", "2–", "≈x%", "up to"} {
		if _, err := parseBand(s); err == nil {
			t.Errorf("band %q parsed", s)
		}
	}
}

// The renderer on hand-built records: a band row, a predicate row and a ✗
// row with its note; a record or an experiment that is missing is an error
// naming the experiment and the key.
func TestClaimsRender(t *testing.T) {
	exps := map[string]map[string]float64{"e1": {"r": 3, "a": 1, "b": 2}, "e2": {"x": 10, "y": 57.5}}
	from := func(exp string) (map[string]float64, error) {
		if m, ok := exps[exp]; ok {
			return m, nil
		}
		return nil, fmt.Errorf("no experiment %s", exp)
	}
	cs := []claim{
		{text: "ratio", paper: "2–3×", value: keys("e1", "r")},
		{text: "order", paper: "yes", value: func(r *records) []float64 { return []float64{boolMetric(r.v("e1", "a") < r.v("e1", "b"))} }},
		{text: "range", paper: "≈50%", value: keys("e2", "x", "y"), note: "off"},
	}
	got, err := renderClaims(cs, &records{load: from})
	if err != nil {
		t.Fatal(err)
	}
	want := "| # | Claim (paper) | Paper | Measured | Verdict |\n|---|---|---|---|---|\n" +
		"| 1 | ratio | 2–3× | **3.00×** | ✓ |\n" +
		"| 2 | order | yes | **yes** | ✓ |\n" +
		"| 3 | range | ≈50% | **10.0–57.5%** | ✗ off |\n" +
		"\n" + verdictRule + "\n"
	if got != want {
		t.Errorf("rendered\n%s\nwant\n%s", got, want)
	}
	for _, exp := range []string{"e1", "e9"} {
		_, err := renderClaims([]claim{{text: "lost", paper: "yes", value: keys(exp, "gone")}}, &records{load: from})
		if err == nil || !strings.Contains(err.Error(), exp) || !strings.Contains(err.Error(), `"gone"`) {
			t.Errorf("a missing record of %s rendered: err %v", exp, err)
		}
	}
}
