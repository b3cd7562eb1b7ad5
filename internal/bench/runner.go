// Package bench implements the paper's evaluation harness (Section VI) as
// one cell-matrix runner. An experiment is a table: an id, a title, the
// cells it is made of under given Options, and the headline values derived
// across them. A cell is a label (the design its records belong to plus its
// axis values), a cluster spec, a driver and a collector naming the values
// it keeps. The runner builds every cell on its own sim.Env, drives it,
// gathers (design, metric, value) records in cell-index order, derives the
// cross-cell ratios, and renders tables and the metric list once. What the
// cells share — the cluster-spec builder and guard policy (spec.go), the
// closed- and open-loop drivers (drivers.go), the history-checked actors,
// outage schedule and lost-acked sweep (actors.go) — has one implementation
// each; the per-experiment files hold cell declarations.
package bench

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/history"
	"hybridkv/internal/metrics"
	"hybridkv/internal/sim"
)

// Options scales an experiment. The default (Full=false) shrinks the
// paper's 1 GB server / 1.5 GB dataset geometry by 4x — every ratio that
// determines the result shape (dataset:RAM 1.5:1, kv size, zipf skew, op
// mix) is preserved — so the suite runs in seconds. Full restores the
// paper's absolute sizes.
type Options struct {
	Full bool
	// Ops overrides the measured operation count (0 = default).
	Ops int
}

func (o Options) geometry() (int64, int, int) {
	if o.Full {
		return 1 << 30, 32 * 1024, 12000
	}
	return 256 << 20, 32 * 1024, 3000
}

func (o Options) ops(def int) int {
	if o.Ops > 0 {
		return o.Ops
	}
	return def
}

// Experiment is one reproducible table/figure: a declaration the runner
// executes. Title is the figure caption and heads its default table.
type Experiment struct {
	ID    string
	Title string
	// tablesOnly omits the sorted metric list under the tables (the
	// breakdown figures and the 576-value batching sweep print tables only).
	tablesOnly bool
	// cells declares the experiment's cells under o, in output order.
	cells func(o Options) []cell
	// derive computes the headline values that span cells. v looks any
	// cell's value up by its full key (an unknown key is an error, so a
	// ratio is never silently dropped); h is where the results go.
	derive func(v func(key string) float64, h *run)
}

// cell is one point of an experiment's matrix.
type cell struct {
	// design is the design a cell's records belong to ("" for cells whose
	// metrics are not one design's); prefix is prepended to every value
	// name and carries the remaining axis values ("uniform.50:50.b4.",
	// "clean_"). A value's full key is design.prefix+name.
	design, prefix string
	// row labels the cell's table points (default: the cell's label) and
	// table names the table they land in (default: the experiment's Title).
	row, table string
	// silent cells feed derive only: none of their values become records.
	silent bool
	// spec is the deployment to build (nil: the cell needs no cluster).
	spec *spec
	// drive runs the measurement phase on the built cluster and fills r's
	// measurement fields; collect names the values and table points the
	// cell keeps. Either may be nil.
	drive, collect func(cl *cluster.Cluster, r *run)
}

func (c *cell) label() string { return strings.TrimRight(c.key(""), "._") }

func (c *cell) key(name string) string {
	if c.design != "" {
		return c.design + "." + c.prefix + name
	}
	return c.prefix + name
}

// run is the one cell-output type: what the shared drivers and actors
// measured (the upper fields, each filled by whichever driver the cell
// uses), and what the cell's collector chose to keep of it.
type run struct {
	// Ops = OK + Misses + Failed where a driver classifies: Misses were
	// answered NotFound, Failed timed out or errored.
	Ops, OK, Misses, Failed int64
	// Lat is per-op completion latency; GetLat / SetLat the read and write
	// sides where a driver separates them.
	Lat, GetLat, SetLat *metrics.Hist
	// Elapsed is the measurement phase's virtual span; Last the instant
	// the last driver process finished, for cells whose background work
	// outlives the load; Now the final virtual clock.
	Elapsed, Last, Now sim.Time
	// PerOp is the phase's mean per-operation time. Stall is the time the
	// application spent stuck inside issue calls (non-blocking drivers) or
	// computing (the overlap driver).
	PerOp, Stall sim.Time
	// InflightPeak is an open-loop driver's backlog high-water mark.
	InflightPeak int
	// Sends and Frames are the wire sends and coalesced frames of a batched
	// phase, FlushWrites the eviction flush writes its servers issued.
	Sends, Frames, FlushWrites int64
	// Server and Client are the stage breakdowns of a closed-loop phase.
	Server, Client *metrics.Breakdown
	// Log is the operation history the checked actors record; Violations
	// what its invariant checker found.
	Log        *history.Log
	Violations []history.Violation
	// lastOK is, per key, the newest sequence a writer saw complete OK: the
	// lost-acked sweep's floor. AckedKeys counts its subjects, LostAcked the
	// keys whose newest OK value survives on no server.
	lastOK               map[string]uint64
	AckedKeys, LostAcked int64
	// Gathered after the drive: Faults merges every client's fault, retry
	// and routing counters, Repl every replicator's; sheds, rejections and
	// recoveries are summed over servers and the peaks maxed; Dropped
	// counts fabric messages lost to injection.
	Faults, Repl          *metrics.Counters
	ShedSets, ShedGets    int64
	Rejected, Discarded   int64
	Recoveries, Dropped   int64
	BufferPeak, QueuePeak int

	cell   *cell
	names  []string // value names in the order set
	vals   map[string]float64
	points []point
	notes  []string
}

type point struct {
	table, col, row string
	v               float64
}

func newRun(c *cell) *run {
	return &run{
		Lat: metrics.NewHist(), GetLat: metrics.NewHist(), SetLat: metrics.NewHist(),
		lastOK: map[string]uint64{}, cell: c, vals: map[string]float64{},
	}
}

// set keeps a named value: it becomes a record of the experiment.
func (r *run) set(name string, v float64) {
	if _, dup := r.vals[name]; dup {
		panic(fmt.Sprintf("value %q set twice", name))
	}
	r.names = append(r.names, name)
	r.vals[name] = v
}

// counts keeps one record per named counter of bag, the counter's dashes
// turned into the metric's underscores.
func (r *run) counts(bag *metrics.Counters, names ...string) {
	for _, name := range names {
		r.set(strings.ReplaceAll(name, "-", "_"), float64(bag.Get(name)))
	}
}

// val reads a kept value back; an unknown name is a bug in the caller.
func (r *run) val(name string) float64 {
	v, ok := r.vals[name]
	if !ok {
		panic(fmt.Sprintf("no value %q", name))
	}
	return v
}

// plot places v in column col of the cell's table, at the cell's row;
// plotAt at an explicit table, column and row.
func (r *run) plot(col string, v float64) { r.plotAt(r.cell.table, col, r.cell.row, v) }

func (r *run) plotAt(table, col, row string, v float64) {
	r.points = append(r.points, point{table, col, row, v})
}

// show keeps v as a record and plots it: most table columns are metrics.
func (r *run) show(col, name string, v float64) {
	r.set(name, v)
	r.plot(col, v)
}

func (r *run) classify(err error) {
	switch {
	case err == nil:
		r.OK++
	case errors.Is(err, core.ErrNotFound):
		r.Misses++
	default:
		r.Failed++
	}
}

// goodput is answered operations (OK + Misses) per virtual second.
func (r *run) goodput() float64 { return metrics.Throughput(r.OK+r.Misses, r.Elapsed) }

// gather reads the cluster-wide ledgers every collector may want.
func (r *run) gather(cl *cluster.Cluster) {
	r.Now = cl.Env.Now()
	r.Faults = metrics.NewCounters()
	for _, c := range cl.Clients {
		r.Faults.Merge(c.Faults)
	}
	r.Repl = cl.ReplicationCounters()
	r.Dropped = cl.Fabric.Dropped
	for _, s := range cl.Servers {
		r.ShedSets += s.ShedSets
		r.ShedGets += s.ShedGets
		r.Rejected += s.Rejected
		r.Discarded += s.Discarded
		r.Recoveries += s.Recovery.Get("recoveries")
		r.BufferPeak = max(r.BufferPeak, s.BufferPeak)
		r.QueuePeak = max(r.QueuePeak, s.QueuePeak)
	}
}

// check runs the history checker over the actors' log and returns how many
// violations it found; unless quiet, each is printed under the tables.
func (r *run) check(quiet bool) float64 {
	r.Violations = r.Log.Check()
	for _, v := range r.Violations {
		if quiet {
			break
		}
		r.notes = append(r.notes, fmt.Sprintf("VIOLATION %s: %s", r.cell.label(), v))
	}
	return float64(len(r.Violations))
}

// ackedWrites counts the logged writes the server acknowledged holding.
func (r *run) ackedWrites() float64 {
	n := 0
	for _, e := range r.Log.Entries {
		if e.Kind == history.Write && e.Acked {
			n++
		}
	}
	return float64(n)
}

type Result struct {
	ID     string
	Output string
	// Metrics holds the named scalar results by full key (latencies in µs,
	// throughput in ops/s, overlap in %), for EXPERIMENTS.md and the
	// regression tests.
	Metrics map[string]float64
	// records are the same values with the design kept apart, in cell
	// order; tables the structured series behind Output, for CSV export.
	records []record
	tables  []*table
	notes   []string
}

type table struct {
	title string
	cols  []*metrics.Series
}

// runCell builds, drives and collects one cell. A panic anywhere inside —
// model code, a driver, a collector — comes back as an error naming the
// experiment and the cell, with the stack.
func (e *Experiment) runCell(c *cell) (r *run, err error) {
	if c.table == "" {
		c.table = e.Title
	}
	name := c.label()
	if name == "" {
		name = c.row // the headline cell
	}
	if c.row == "" {
		c.row = name
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("bench: %s cell %s: %v\n%s", e.ID, name, p, debug.Stack())
		}
	}()
	r = newRun(c)
	var cl *cluster.Cluster
	if c.spec != nil {
		cl = c.spec.build()
	}
	if c.drive != nil {
		c.drive(cl, r)
	}
	if cl != nil {
		r.gather(cl)
		// A run that measured nothing renders as rows of zeros and drops
		// every ratio built on them; refuse it instead.
		if r.Ops == 0 {
			return nil, fmt.Errorf("bench: %s cell %s measured zero operations (raise -ops)", e.ID, name)
		}
	}
	if c.collect != nil {
		c.collect(cl, r)
	}
	if cl != nil {
		// All is read; a parked process would pin its cluster for good.
		cl.Env.Close()
	}
	return r, nil
}

// Run executes the experiment: every cell on its own sim.Env, spread over
// GOMAXPROCS workers and assembled by cell index, so the output is
// byte-identical to a serial run. A failing cell, a duplicate metric key or
// a non-finite value is an error naming the experiment and the cell.
func (e *Experiment) Run(o Options) (*Result, error) {
	cells := e.cells(o)
	runs := make([]*run, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runs[i], errs[i] = e.runCell(&cells[i])
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err // the first failing cell, by index
		}
	}

	res := &Result{ID: e.ID, Metrics: map[string]float64{}}
	all := map[string]float64{} // every value, silent cells' too: derive's view
	for _, r := range runs {
		if err := res.add(r, all); err != nil {
			return nil, err
		}
	}
	if e.derive != nil {
		// The headline values are one more cell, collected over the rest.
		h, err := e.runCell(&cell{row: "headline", collect: func(_ *cluster.Cluster, h *run) {
			e.derive(func(key string) float64 {
				v, ok := all[key]
				if !ok {
					panic(fmt.Sprintf("derive reads unknown value %q", key))
				}
				return v
			}, h)
		}})
		if err == nil {
			err = res.add(h, all)
		}
		if err != nil {
			return nil, err
		}
	}
	var sb strings.Builder
	for _, t := range res.tables {
		sb.WriteString(metrics.Table(t.title, t.cols...))
	}
	for _, n := range res.notes {
		sb.WriteString(n + "\n")
	}
	if !e.tablesOnly {
		sb.WriteString(res.renderMetrics())
	}
	res.Output = sb.String()
	return res, nil
}

// add folds one cell's output into the result: its values into all, and
// unless the cell is silent its records, table points and notes. A key
// recorded twice and a non-finite value are errors.
func (res *Result) add(r *run, all map[string]float64) error {
	for _, name := range r.names {
		key, v := r.cell.key(name), r.vals[name]
		if _, dup := all[key]; dup {
			return fmt.Errorf("bench: %s cell %s: duplicate metric key %q", res.ID, r.cell.label(), key)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bench: %s cell %s: metric %q is %v", res.ID, r.cell.label(), key, v)
		}
		all[key] = v
		if !r.cell.silent {
			res.Metrics[key] = v
			res.records = append(res.records, record{res.ID, r.cell.design, r.cell.prefix + name, v})
		}
	}
	if r.cell.silent {
		return nil
	}
	for _, p := range r.points {
		res.place(p)
	}
	res.notes = append(res.notes, r.notes...)
	return nil
}

// place appends a point to its table and column, creating either on first
// use: tables and columns appear in the order cells first mention them.
func (res *Result) place(p point) {
	var t *table
	for _, have := range res.tables {
		if have.title == p.table {
			t = have
		}
	}
	if t == nil {
		t = &table{title: p.table}
		res.tables = append(res.tables, t)
	}
	for _, col := range t.cols {
		if col.Name == p.col {
			col.Append(p.row, p.v)
			return
		}
	}
	t.cols = append(t.cols, &metrics.Series{Name: p.col, Labels: []string{p.row}, Values: []float64{p.v}})
}

func (res *Result) renderMetrics() string {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-52s %14.2f\n", k, res.Metrics[k])
	}
	return sb.String()
}

// WriteCSV emits every table as CSV: a title row and a header row per
// table, the first column being the row label.
func (res *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	for _, t := range res.tables {
		rows := [][]string{{"# " + t.title}, {"label"}}
		for _, c := range t.cols {
			rows[1] = append(rows[1], c.Name)
		}
		for i, label := range t.cols[0].Labels {
			row := []string{label}
			for _, c := range t.cols {
				v := ""
				if i < len(c.Values) {
					v = strconv.FormatFloat(c.Values[i], 'f', 4, 64)
				}
				row = append(row, v)
			}
			rows = append(rows, row)
		}
		if err := cw.WriteAll(rows); err != nil {
			return err
		}
	}
	return nil
}

func us(d sim.Time) float64 { return float64(d) / float64(sim.Microsecond) }

func ms(d sim.Time) float64 { return float64(d) / float64(sim.Millisecond) }

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// opsPerSec is n operations per virtual second of elapsed, by plain float
// division. metrics.Throughput divides by Duration.Seconds, which sums
// whole seconds and the fraction separately and can differ in the last
// bit; the post-paper cells' committed values were taken with this form.
func opsPerSec(n int64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / (float64(elapsed) / float64(sim.Second))
}
