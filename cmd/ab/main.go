// ab compares the benchmark of another commit against the working tree's,
// seed by seed, on one workload: the paired-seed measurement a performance
// claim is judged by.
//
// Usage (from the root of the repository; `make ab` wraps it):
//
//	ab -base <git ref> -workload <name> -metric <end-to-end metric> [-seeds 701-710] [-seconds T]
//
// It extracts `git archive <base>` into a temporary directory and runs
// benchmark/run.sh there and in the working tree, which build the benchmark
// from their own checkout, once per seed on each side, at -seconds (default:
// BENCHMARK.json's run_seconds), alternating which side runs first. It
// prints, per pair, both values of -metric and the winner, by the metric's
// direction in BENCHMARK.json; then the wins out of the pairs, both medians,
// the median change and the base's interquartile range; then, for every
// other end-to-end metric, the median change beside the metric's bound, with
// WORSE where it is past the bound in the wrong direction; and last, each
// side's failed share of operations and the host time a pair took.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// report is the last line benchmark/run.sh prints for one workload.
type report struct {
	Attempted float64 `json:"attempted"`
	Failed    float64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "git ref of the base side")
	workload := flag.String("workload", "", "benchmark workload")
	metric := flag.String("metric", "", "end-to-end metric the pairs are judged by")
	seeds := flag.String("seeds", "701-710", "seeds, as first-last")
	seconds := flag.Float64("seconds", 0, "benchmark -seconds per run (0: BENCHMARK.json's run_seconds)")
	flag.Parse()
	if *base == "" || *workload == "" || *metric == "" {
		fmt.Fprintln(os.Stderr, "usage: ab -base <git ref> -workload <name> -metric <metric> [-seeds first-last] [-seconds T]")
		os.Exit(2)
	}
	if err := run(*base, *workload, *metric, *seeds, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

func run(base, workload, metric, seedRange string, seconds float64) error {
	var bench struct {
		RunSeconds float64      `json:"run_seconds"`
		EndToEnd   []metricSpec `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %v", err)
	}
	if seconds == 0 {
		seconds = bench.RunSeconds
	}
	i := slices.IndexFunc(bench.EndToEnd, func(m metricSpec) bool { return m.Name == metric })
	if i < 0 {
		return fmt.Errorf("%q is not an end-to-end metric of BENCHMARK.json", metric)
	}
	judged := bench.EndToEnd[i]
	first, last, err := parseSeeds(seedRange)
	if err != nil {
		return err
	}

	tmp, err := os.MkdirTemp("", "ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if err := os.Mkdir(baseDir, 0o755); err != nil {
		return err
	}
	extract := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", base, baseDir)
	extract.Stderr = os.Stderr
	if err := extract.Run(); err != nil {
		return fmt.Errorf("git archive %s: %v", base, err)
	}

	fmt.Printf("ab: %s (base) vs the working tree, workload %s, seeds %d-%d at %g s, judged by %s (%s is better)\n",
		base, workload, first, last, seconds, metric, judged.Better)
	fmt.Printf("%6s %14s %14s  %s\n", "seed", "base", "tree", "winner")
	var runs [2][]report // base, tree
	wins := 0
	var pairTime time.Duration
	for seed := first; seed <= last; seed++ {
		var pair [2]report
		t0 := time.Now()
		for k := range 2 {
			side := (seed - first + k) % 2 // alternate which side runs first
			dir := []string{baseDir, "."}[side]
			if pair[side], err = runOnce(dir, workload, seed, seconds); err != nil {
				return fmt.Errorf("seed %d, %s: %v", seed, []string{"base", "tree"}[side], err)
			}
		}
		pairTime += time.Since(t0)
		b, h := pair[0].Metrics[metric].Value, pair[1].Metrics[metric].Value
		winner := "tie"
		if change(b, h, judged.Better) < 0 {
			winner, wins = "tree", wins+1
		} else if b != h {
			winner = "base"
		}
		fmt.Printf("%6d %14.6g %14.6g  %s\n", seed, b, h, winner)
		runs[0], runs[1] = append(runs[0], pair[0]), append(runs[1], pair[1])
	}

	n := last - first + 1
	values := func(side int, name string) []float64 {
		var v []float64
		for _, r := range runs[side] {
			v = append(v, r.Metrics[name].Value)
		}
		return v
	}
	bm, hm := quantile(values(0, metric), 0.5), quantile(values(1, metric), 0.5)
	iqr := quantile(values(0, metric), 0.75) - quantile(values(0, metric), 0.25)
	fmt.Printf("%s: tree better on %d of %d pairs; median base %.6g, tree %.6g (%+.2f %%); base IQR %.6g\n",
		metric, wins, n, bm, hm, 100*(hm/bm-1), iqr)
	// The gain a claim needs: better on nine pairs in ten, and in the median
	// by more than the base's interquartile range.
	fmt.Printf("gain: %v\n", 10*wins >= 9*n && change(bm, hm, judged.Better) < 0 && math.Abs(hm-bm) > iqr)
	fmt.Println("other end-to-end metrics, median change (worse is positive) against the bound:")
	for _, m := range bench.EndToEnd {
		if m.Name == metric {
			continue
		}
		c := change(quantile(values(0, m.Name), 0.5), quantile(values(1, m.Name), 0.5), m.Better)
		mark := ""
		if c > m.Bound {
			mark = "  WORSE"
		}
		fmt.Printf("  %-20s %+8.2f %%  bound %5.1f %%%s\n", m.Name, 100*c, 100*m.Bound, mark)
	}
	failed := func(side int) float64 {
		var f, a float64
		for _, r := range runs[side] {
			f, a = f+r.Failed, a+r.Attempted
		}
		return f / a
	}
	fmt.Printf("failed share: base %.6f, tree %.6f; %.1f s of host time per pair\n",
		failed(0), failed(1), pairTime.Seconds()/float64(n))
	return nil
}

// runOnce runs benchmark/run.sh in dir for one workload and seed and returns
// the report on the last line of its output.
func runOnce(dir, workload string, seed int, seconds float64) (report, error) {
	var out, stderr bytes.Buffer
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &out, &stderr
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("%v\n%s", err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return report{}, fmt.Errorf("the last line of the output: %v", err)
	}
	return r, nil
}

// change is how much worse tree is than base, as a fraction of base: positive
// when tree is worse by the metric's direction, negative when better.
func change(base, tree float64, better string) float64 {
	if base == tree {
		return 0
	}
	c := tree/base - 1
	if better == "higher" {
		c = -c
	}
	return c
}

// parseSeeds reads "first-last" (or one seed).
func parseSeeds(s string) (first, last int, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	if first, err = strconv.Atoi(a); err == nil {
		last, err = strconv.Atoi(b)
	}
	if err != nil || last < first {
		return 0, 0, fmt.Errorf("seeds %q: want first-last", s)
	}
	return first, last, nil
}

// quantile is the q-quantile of v, interpolated linearly between order
// statistics.
func quantile(v []float64, q float64) float64 {
	s := slices.Sorted(slices.Values(v))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
