package bench

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"hybridkv/internal/cluster"
)

// tinySpec is the smallest useful deployment for runner tests.
func tinySpec() *spec {
	return paperSpec(cluster.RDMAMem, cluster.ClusterA(), 8<<20, 1<<20, 32*1024)
}

// The harness must fail loudly where it used to be silent: a metric key
// recorded twice (by one cell, or by two cells with the same label), a
// non-finite value (a ratio over a zero), and a cell that measured zero
// operations (an -ops too small for its client count) are each an error
// naming the experiment and the cell.
func TestRunnerRejectsSilentFailures(t *testing.T) {
	keep := func(name string, v float64) func(*cluster.Cluster, *run) {
		return func(_ *cluster.Cluster, r *run) { r.set(name, v) }
	}
	for _, tc := range []struct {
		name  string
		cells []cell
		want  []string // substrings of the error
	}{
		{"duplicate key in one cell",
			[]cell{{prefix: "a.", collect: func(_ *cluster.Cluster, r *run) { r.set("x", 1); r.set("x", 2) }}},
			[]string{"exp-x", "cell a", `"x" set twice`}},
		{"duplicate key across cells",
			[]cell{{prefix: "a.", collect: keep("x", 1)}, {prefix: "a.", collect: keep("x", 2)}},
			[]string{"exp-x", "cell a", `duplicate metric key "a.x"`}},
		{"NaN value",
			[]cell{{design: "D", prefix: "b.", collect: keep("ratio", math.NaN())}},
			[]string{"exp-x", "cell D.b", `"D.b.ratio" is NaN`}},
		{"infinite value",
			[]cell{{prefix: "b.", collect: keep("ratio", math.Inf(1))}},
			[]string{"cell b", "is +Inf"}},
		{"zero operations measured",
			[]cell{{prefix: "c.", spec: tinySpec(), drive: tinySpec().closed(zipf(0.5, 1), 0)}},
			[]string{"exp-x", "cell c", "measured zero operations"}},
	} {
		e := Experiment{ID: "exp-x", Title: "x", cells: func(Options) []cell { return tc.cells }}
		res, err := e.Run(Options{})
		if err == nil {
			t.Errorf("%s: Run succeeded with metrics %v", tc.name, res.Metrics)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
	}
}

// The same failure through the real registry: `mc-bench -ops 1 bypass` used
// to print a NaN speedup and die writing it as JSON; now it refuses.
func TestTooFewOpsIsAnError(t *testing.T) {
	if _, err := ByID("bypass").Run(Options{Ops: 1}); err == nil || !strings.Contains(err.Error(), "measured zero operations") {
		t.Errorf("bypass at -ops 1: err = %v, want a zero-operations error", err)
	}
}

// A headline ratio derive cannot compute is an error, never a dropped key.
func TestDeriveAlwaysEmits(t *testing.T) {
	e := Experiment{ID: "exp-d", Title: "d",
		cells:  func(Options) []cell { return nil },
		derive: func(v func(string) float64, h *run) { h.set("ratio", v("missing.key")) },
	}
	if _, err := e.Run(Options{}); err == nil || !strings.Contains(err.Error(), `unknown value "missing.key"`) {
		t.Errorf("derive over a missing value: err = %v", err)
	}
}

// A panicking cell surfaces from Run as an error with its label and stack.
func TestPanickingCellIsLabelled(t *testing.T) {
	e := Experiment{ID: "exp-p", Title: "p", cells: func(Options) []cell {
		return []cell{
			{prefix: "fine.", collect: func(_ *cluster.Cluster, r *run) { r.set("x", 1) }},
			{design: "H-RDMA-Def", prefix: "boom.", collect: func(*cluster.Cluster, *run) { panic("kaboom") }},
		}
	}}
	_, err := e.Run(Options{})
	if err == nil {
		t.Fatal("Run swallowed the panic")
	}
	for _, want := range []string{"exp-p", "cell H-RDMA-Def.boom", "kaboom", "runner_test.go"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not mention %q:\n%v", want, err)
		}
	}
}

// Cells run on GOMAXPROCS workers and are assembled by index: a multi-cell
// experiment's tables, metric list and JSON records are byte-identical at
// GOMAXPROCS 1 and 4. (The race detector watches the workers in `make
// race`.)
func TestParallelCellsByteIdentical(t *testing.T) {
	render := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r := freshExp(t, "replication", Options{Ops: 150}) // six clusters, kills and sweeps; each render its own run
		var buf bytes.Buffer
		if err := WriteJSON(&buf, []*Result{r}); err != nil {
			t.Fatal(err)
		}
		return r.Output + buf.String()
	}
	if serial, parallel := render(1), render(4); serial != parallel {
		t.Errorf("output differs between GOMAXPROCS 1 and 4:\n--- serial\n%s\n--- parallel\n%s", serial, parallel)
	}
}
