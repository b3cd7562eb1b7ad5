// mc-bench reproduces the paper's tables and figures: it builds the
// requested simulated cluster designs, preloads them, runs the measurement
// phase, and prints the same rows/series the paper reports.
//
// Usage:
//
//	mc-bench -list
//	mc-bench [-full] [-ops N] fig1a fig6b abl-zipf ...
//	mc-bench [-full] all
//	mc-bench -smoke          (whole registry at tiny op counts)
//	mc-bench -json <path> all     (write records; a directory gets one BENCH_<id>.json each)
//	mc-bench -verify <path> all   (compare records against committed ones, exactly)
//
// Experiment ids follow the paper's figure numbering (fig1a..fig8b), the
// ablations are abl-*; see DESIGN.md §5 for the per-experiment index.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"hybridkv/internal/bench"
)

// snapshots calls fn for every records file a -json/-verify path stands
// for, with the results it holds: a directory holds one BENCH_<id>.json per
// experiment, anything else is one file of every result.
func snapshots(path string, results []*bench.Result, fn func(file string, rs []*bench.Result) error) error {
	if st, err := os.Stat(path); err != nil || !st.IsDir() {
		return fn(path, results)
	}
	for _, r := range results {
		if err := fn(filepath.Join(path, "BENCH_"+r.ID+".json"), []*bench.Result{r}); err != nil {
			return err
		}
	}
	return nil
}

// writeFile writes what encode produces, whole or not at all: a result that
// cannot be encoded leaves no zero-byte file behind.
func writeFile(path string, encode func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// writeJSON dumps the run experiments' metric records under path.
func writeJSON(path string, results []*bench.Result) error {
	return snapshots(path, results, func(file string, rs []*bench.Result) error {
		return writeFile(file, func(w io.Writer) error { return bench.WriteJSON(w, rs) })
	})
}

// verify compares the run experiments' records against the committed ones
// under path, prints the differing records and returns how many there are.
func verify(path string, results []*bench.Result) (diffs int, err error) {
	total := 0
	err = snapshots(path, results, func(file string, rs []*bench.Result) error {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := bench.Verify(os.Stdout, f, rs)
		diffs += n
		for _, r := range rs {
			total += len(r.Metrics)
		}
		return err
	})
	fmt.Printf("verify: %d records run, %d changed, missing or extra against %s\n", total, diffs, path)
	return diffs, err
}

// writeCSV dumps one experiment's tables to <dir>/<id>.csv.
func writeCSV(dir string, r *bench.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, r.ID+".csv"), r.WriteCSV)
}

func main() {
	list := flag.Bool("list", false, "list available experiments and ablations and exit")
	full := flag.Bool("full", false, "use the paper's full sizes (1 GB server memory) instead of the 4x-scaled default")
	ops := flag.Int("ops", 0, "override the measured operation count")
	smoke := flag.Bool("smoke", false, "run every registered experiment at a tiny operation count (registry smoke test)")
	csvDir := flag.String("csv", "", "also write each experiment's tables as CSV into this directory")
	jsonPath := flag.String("json", "", "also write every run experiment's metrics as JSON records to this file, or as one BENCH_<id>.json each into this directory")
	verifyPath := flag.String("verify", "", "compare every run experiment's records, exactly, against the committed ones in this file or directory of BENCH_<id>.json; print the differing records instead of the tables and exit non-zero on any")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mc-bench [-list] [-full] [-ops N] [-smoke] [-csv dir] [-json path] [-verify path] <experiment-id>... | all\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, e := range bench.Registry {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		fmt.Println("ablations (not part of `all`):")
		for _, e := range bench.Ablations {
			fmt.Printf("  %-14s %s\n", e.ID, e.Title)
		}
		return
	}

	ids := flag.Args()
	if (*smoke && len(ids) == 0) || (len(ids) == 1 && ids[0] == "all") {
		ids = nil
		for _, e := range bench.Registry {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	opts := bench.Options{Full: *full, Ops: *ops}
	if *smoke && opts.Ops == 0 {
		opts.Ops = 300
	}
	exit := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mc-bench: "+format+"\n", args...)
		exit = 1
	}
	// Under -verify stdout carries the differing records only; progress
	// goes to stderr.
	progress := os.Stdout
	if *verifyPath != "" {
		progress = os.Stderr
	}
	var results []*bench.Result
	for _, id := range ids {
		e := bench.ByID(id)
		if e == nil {
			fail("unknown experiment %q (try -list)", id)
			continue
		}
		t0 := time.Now()
		r, err := e.Run(opts)
		if err != nil {
			fail("%v", err)
			continue
		}
		results = append(results, r)
		fmt.Fprintf(progress, "==> %s — %s   [%v wall]\n", r.ID, e.Title, time.Since(t0).Round(time.Millisecond))
		if *verifyPath == "" {
			fmt.Printf("%s\n", r.Output)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, r); err != nil {
				fail("csv: %v", err)
			}
		}
	}
	if *jsonPath != "" && len(results) > 0 {
		if err := writeJSON(*jsonPath, results); err != nil {
			fail("json: %v", err)
		}
	}
	if *verifyPath != "" {
		if n, err := verify(*verifyPath, results); err != nil {
			fail("verify: %v", err)
		} else if n > 0 {
			exit = 1
		}
	}
	os.Exit(exit)
}
