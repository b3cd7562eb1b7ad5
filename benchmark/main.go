// Command benchmark is the repository's yardstick: four named workloads
// driven through the public client API against deployments built with
// cluster.New, measured on two clocks (virtual = the modelled store, host =
// the simulator), with every reply checked. See README.md in this directory.
//
//	go run ./benchmark -seed 1 -out r.json          all workloads, end-to-end metrics
//	go run ./benchmark -seed 1 -trace 1 -out r.json  ... plus the per-layer trace
//	go run ./benchmark -check                       determinism gate at 1/20 scale
//	go run ./benchmark -compare A.json B.json       judge B against A
//
// The pipeline's driver runs one workload per invocation:
//
//	bash benchmark/run.sh --workload read-hot --seed 7 --seconds 10 --trace 0
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. Clock says which clock a time was read
// from; Samples is how many observations a percentile was taken over.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Clock   string  `json:"clock,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// failures counts failed operations by cause.
type failures struct {
	Errors   int `json:"errors"`
	Wrong    int `json:"wrong_value"`
	NotFound int `json:"not_found"`
}

func (f failures) total() int { return f.Errors + f.Wrong + f.NotFound }

// result is one workload's report.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Passes    int      `json:"passes"`
	OpsPass   int      `json:"ops_per_pass"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  failures `json:"failures"`
	ShortPass bool     `json:"short_pass,omitempty"`
	WallS     float64  `json:"wall_s"`
	// PassHostUS is each untraced pass's host µs per op; their disagreement
	// is what -compare calls unresolved.
	PassHostUS []float64         `json:"pass_host_us_per_op"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	TraceFile  string            `json:"trace_file,omitempty"`
}

// report is what -out writes and -compare reads.
type report struct {
	Host      string    `json:"host"`
	NProc     int       `json:"nproc"`
	GoVersion string    `json:"go_version"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Workloads []*result `json:"workloads"`
}

// passes is how many fresh-cluster passes one workload's end-to-end metrics
// pool; their seeds are seed, seed+1, seed+2.
const passes = 3

// shortPass is the measured-phase host time below which a full-scale pass
// is too short to time against this box's noise. It is reported, not
// enforced: see README, "Sizes".
const shortPass = 2 * time.Second

type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// isoCalls is how many calls each layer driver makes (tests lower it).
	isoCalls int
}

// opsFor is the op count of one pass of sp sized for seconds of host time.
func opsFor(sp *spec, seconds float64) int {
	return int(float64(sp.ops) * seconds / refSeconds)
}

// runWorkload measures one workload: passes untraced passes for the
// end-to-end metrics and, with o.trace, one traced pass plus the layer
// drivers for the per-layer metrics.
func runWorkload(sp *spec, o options) (*result, error) {
	t0 := time.Now()
	ops := opsFor(sp, o.seconds)
	var ps []*pass
	for i := 0; i < passes; i++ {
		p, err := runPass(sp, o.seed+int64(i), ops, "")
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	res := &result{
		Workload: sp.name, Seed: o.seed, Passes: passes, OpsPass: ps[0].Ops,
		EndToEnd: endToEnd(ps),
	}
	for _, p := range ps {
		res.Attempted += p.attempted()
		res.Failures.Errors += p.Failures.Errors
		res.Failures.Wrong += p.Failures.Wrong
		res.Failures.NotFound += p.Failures.NotFound
		res.PassHostUS = append(res.PassHostUS, p.hostUSPerOp())
		if o.seconds >= refSeconds && time.Duration(p.HostNS) < shortPass {
			res.ShortPass = true
		}
	}
	res.Failed = res.Failures.total()
	if o.trace {
		if err := traceWorkload(sp, o, ps[0], res); err != nil {
			return nil, err
		}
	}
	res.WallS = time.Since(t0).Seconds()
	return res, nil
}

// traceWorkload runs the traced pass and the layer drivers and fills in the
// per-layer metrics. The traced pass repeats untraced pass 0 (same seed, same
// ops) with spans recorded around the benchmark's calls into the client
// library; spans live outside the program, so its virtual results must match
// pass 0 exactly, and its extra host time is the tracing overhead.
func traceWorkload(sp *spec, o options, untraced *pass, res *result) error {
	tp, err := runPass(sp, o.seed, untraced.Ops, o.outDir)
	if err != nil {
		return err
	}
	if !sameVirtual(tp, untraced) {
		return fmt.Errorf("%s: traced pass differs from untraced pass on the virtual clock (benchmark bug)", sp.name)
	}
	m := tp.Layers
	for n, v := range isoMetrics(sp, o.seed, o.isoCalls) {
		m[n] = v
	}
	m["driver.host_us_per_op"] = metric{Value: fastest(res.PassHostUS), Unit: "us"}
	m["driver.host_us_per_op_median"] = metric{Value: median(res.PassHostUS), Unit: "us"}
	m["driver.host_spread"] = metric{Value: spread(res.PassHostUS), Unit: "ratio"}
	m["driver.trace_overhead_share"] = metric{Value: tp.hostUSPerOp()/untraced.hostUSPerOp() - 1, Unit: "ratio"}
	res.PerLayer, res.TraceFile = m, tp.TraceFile
	return nil
}

// sameVirtual reports whether two passes agree on everything the virtual
// clock decides: every latency, the elapsed time, and every counter.
func sameVirtual(a, b *pass) bool {
	if a.VirtualNS != b.VirtualNS || a.failed() != b.failed() || !slices.Equal(a.Get, b.Get) || !slices.Equal(a.Set, b.Set) {
		return false
	}
	for n, v := range a.Layers {
		if hostMetric(n) {
			continue
		}
		if b.Layers[n] != v {
			return false
		}
	}
	return true
}

// hostMetric reports whether a pass's per-layer metric is read from the host
// clock, and so differs between two runs of the same simulation.
func hostMetric(name string) bool {
	return strings.HasPrefix(name, "host.") || name == "sim.host_us_per_virtual_ms"
}

// endToEnd computes the end-to-end metrics from a workload's untraced passes.
func endToEnd(ps []*pass) map[string]metric {
	var get, set []int64
	var setup []float64
	var correct, ops int
	var virtual, mallocs, bytes float64
	for _, p := range ps {
		get = append(get, p.Get...)
		set = append(set, p.Set...)
		setup = append(setup, p.SetupS)
		correct += p.Correct
		ops += p.Ops
		virtual += float64(p.VirtualNS) / 1e9
		mallocs += float64(p.Mallocs)
		bytes += float64(p.Bytes)
	}
	m := map[string]metric{
		"setup_s":            {Value: median(setup), Unit: "s", Clock: "host"},
		"goodput_kops":       {Value: ratio(float64(correct), virtual) / 1e3, Unit: "kops", Clock: "virtual"},
		"host_allocs_per_op": {Value: mallocs / float64(ops), Unit: "count", Clock: "host"},
		"host_bytes_per_op":  {Value: bytes / float64(ops), Unit: "B", Clock: "host"},
	}
	for kind, samples := range map[string][]int64{"get": get, "set": set} {
		if len(samples) == 0 {
			continue
		}
		sorted := sortedCopy(samples)
		var sum int64
		for _, v := range sorted {
			sum += v
		}
		m[kind+"_mean_us"] = metric{Value: float64(sum) / float64(len(sorted)) / 1e3, Unit: "us", Clock: "virtual", Samples: len(sorted)}
		for name, q := range map[string]float64{"p99": 0.99, "p999": 0.999} {
			if v, ok := percentile(sorted, q); ok {
				m[kind+"_"+name+"_us"] = metric{Value: float64(v) / 1e3, Unit: "us", Clock: "virtual", Samples: len(sorted)}
			}
		}
	}
	return m
}

func hostInfo(o options) *report {
	host, _ := os.Hostname() // a missing name only blanks a label
	return &report{
		Host: host, NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Seed: o.seed, Seconds: o.seconds,
	}
}

func printResult(r *result) {
	fmt.Printf("== %s  seed %d  %d passes x %d ops  attempted %d  failed %d  [%.1f s wall]\n",
		r.Workload, r.Seed, r.Passes, r.OpsPass, r.Attempted, r.Failed, r.WallS)
	if r.Failed > 0 {
		fmt.Printf("   failures: %d errors, %d wrong values, %d not found\n", r.Failures.Errors, r.Failures.Wrong, r.Failures.NotFound)
	}
	if r.ShortPass {
		fmt.Printf("   WARNING: a measured pass took under %v of host time; host metrics are in the noise, resize the workload\n", shortPass)
	}
	fmt.Printf("   host us/op by pass: %.3f\n", r.PassHostUS)
	printMetrics(r.EndToEnd)
	printMetrics(r.PerLayer)
	if r.TraceFile != "" {
		fmt.Printf("   spans: %s\n", r.TraceFile)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		extra := v.Clock
		if v.Samples > 0 {
			extra += fmt.Sprintf(", n=%d", v.Samples)
		}
		if extra != "" {
			extra = "  (" + extra + ")"
		}
		fmt.Printf("   %-34s %16.6g %-6s%s\n", n, v.Value, v.Unit, extra)
	}
}

// driverLine is the one-line result the pipeline's driver reads: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one, each with exactly a value and a unit.
func driverLine(r *result, trace bool) ([]byte, error) {
	src := r.EndToEnd
	if trace {
		src = r.PerLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]metric{}}
	for n, m := range src {
		out.Metrics[n] = metric{Value: m.Value, Unit: m.Unit} // clock and sample count stay in the -out report
	}
	return json.Marshal(out)
}

func writeJSON(name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(b, '\n'), 0o644)
}

func run() error {
	var o options
	var workloadName, out string
	var trace int
	var check, compare bool
	flag.StringVar(&workloadName, "workload", "", "run only this workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "run seed; every generator seed is derived from it")
	flag.Float64Var(&o.seconds, "seconds", refSeconds, "host seconds one workload's measured passes are sized for; op counts scale with it")
	flag.IntVar(&trace, "trace", 0, "1: also run the traced pass and the layer drivers, report per-layer metrics")
	flag.StringVar(&out, "out", "", "write the full report as JSON to this file")
	flag.StringVar(&o.outDir, "trace-dir", filepath.Join("benchmark", "out"), "directory the span files are written to")
	flag.BoolVar(&check, "check", false, "determinism gate: every workload twice at 1/20 scale, and once more on another seed")
	flag.BoolVar(&compare, "compare", false, "compare two reports: -compare A.json B.json")
	flag.Parse()
	o.trace = trace != 0
	o.isoCalls = isoCalls

	switch {
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case check:
		return checkDeterminism(o.seed)
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	todo := specs
	if workloadName != "" {
		sp := specByName(workloadName)
		if sp == nil {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		todo = []*spec{sp}
	}
	t0 := time.Now()
	rep := hostInfo(o)
	for _, sp := range todo {
		res, err := runWorkload(sp, o)
		if err != nil {
			return err
		}
		printResult(res)
		rep.Workloads = append(rep.Workloads, res)
	}
	fmt.Printf("total wall time %.1f s\n", time.Since(t0).Seconds())
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}
	if workloadName != "" {
		line, err := driverLine(rep.Workloads[0], o.trace)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
