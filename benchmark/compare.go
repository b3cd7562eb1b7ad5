package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
)

// metricDef declares one end-to-end metric: its unit, which direction is
// better, and the share of the baseline by which it may worsen before a
// change counts as a regression. BENCHMARK.json repeats this table for the
// pipeline; a test keeps the two identical.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
	timed  bool // a host wall-clock reading, which the box's noise can move
}

// The bounds are at least three times the widest quartile spread seen over
// ten seeds on the reference box (README, "Bounds"), not the 1 % a same-seed
// rerun would allow: the pipeline compares medians of runs on different
// seeds. Wall time per op is too noisy there for any bound and is reported
// per layer, as driver.host_us_per_op.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, timed: true},
	{name: "get_mean_us", unit: "us", bound: 0.05},
	{name: "get_p99_us", unit: "us", bound: 0.10},
	{name: "get_p999_us", unit: "us", bound: 0.25},
	{name: "set_mean_us", unit: "us", bound: 0.05},
	{name: "set_p99_us", unit: "us", bound: 0.10},
	{name: "set_p999_us", unit: "us", bound: 0.15},
	{name: "goodput_kops", unit: "kops", higher: true, bound: 0.05},
	{name: "host_allocs_per_op", unit: "count", bound: 0.02},
	{name: "host_bytes_per_op", unit: "B", bound: 0.02},
}

// verdict judges value b against baseline a under def. hostSpread is the
// wider of the two runs' pass-to-pass host-time spreads: a wall-clock metric
// whose noise exceeds its bound cannot be resolved either way.
func verdict(def metricDef, a, b, hostSpread float64) string {
	if a == 0 {
		return "unresolved"
	}
	worse := b/a - 1
	if def.higher {
		worse = 1 - b/a
	}
	switch {
	case worse <= def.bound:
		return "ok"
	case def.timed && hostSpread > def.bound:
		return "unresolved"
	}
	return "worse"
}

func readReport(name string) (*report, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload and end-to-end metric of two
// reports, B judged against A, and fails if any row is worse.
func compareFiles(nameA, nameB string) error {
	ra, err := readReport(nameA)
	if err != nil {
		return err
	}
	rb, err := readReport(nameB)
	if err != nil {
		return err
	}
	if worse := compareReports(os.Stdout, ra, rb); worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound allows", worse)
	}
	return nil
}

// compareReports writes the rows to w and returns how many are worse. A
// workload or metric that A reports and B does not is worse: a change must
// not pass by losing a measurement.
func compareReports(w io.Writer, ra, rb *report) (worse int) {
	row := func(workload, name, a, b, ratio, bound, verdict string) {
		if verdict == "worse" {
			worse++
		}
		fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s %7s  %s\n", workload, name, a, b, ratio, bound, verdict)
	}
	num := func(v float64) string { return fmt.Sprintf("%.6g", v) }
	row("workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, wa := range ra.Workloads {
		i := slices.IndexFunc(rb.Workloads, func(w *result) bool { return w.Workload == wa.Workload })
		if i < 0 {
			row(wa.Workload, "(every metric)", "", "missing", "", "", "worse")
			continue
		}
		wb := rb.Workloads[i]
		hostSpread := max(spread(wa.PassHostUS), spread(wb.PassHostUS))
		for _, def := range endToEndDefs {
			ma, ok := wa.EndToEnd[def.name]
			if !ok {
				continue
			}
			bound := fmt.Sprintf("%.0f%%", 100*def.bound)
			mb, ok := wb.EndToEnd[def.name]
			if !ok {
				row(wa.Workload, def.name, num(ma.Value), "missing", "", bound, "worse")
				continue
			}
			row(wa.Workload, def.name, num(ma.Value), num(mb.Value), fmt.Sprintf("%.4f", ratio(mb.Value, ma.Value)),
				bound, verdict(def, ma.Value, mb.Value, hostSpread))
		}
		if wb.Failed > wa.Failed {
			row(wa.Workload, "failed", strconv.Itoa(wa.Failed), strconv.Itoa(wb.Failed), "", "0", "worse")
		}
	}
	return worse
}
