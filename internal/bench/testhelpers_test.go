package bench

import "testing"

// runCell runs one cell through the runner — build, drive, gather, collect,
// with the runner's own checks — and fails the test on an error. Tests reach
// every cell this way: a registry cell via its constructor with the
// registry's arguments, a variant via the same constructor with its own.
func runCell(t testing.TB, c cell) *run {
	t.Helper()
	r, err := (&Experiment{ID: "test", Title: "test"}).runCell(&c)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runExp runs a whole registry experiment or ablation by id — once per (id,
// Options) for the package's tests: a Result is read-only and a run is
// deterministic, so the second test to ask for the same run (TestFig1bShape
// reads fig1a's baseline) gets the first one's.
func runExp(t testing.TB, id string, o Options) *Result {
	t.Helper()
	key := expRun{id, o}
	if expRuns[key] == nil {
		expRuns[key] = freshExp(t, id, o)
	}
	return expRuns[key]
}

type expRun struct {
	id string
	o  Options
}

var expRuns = map[expRun]*Result{} // the package's tests run one at a time

// freshExp runs it whatever runExp remembers: a determinism test's second run.
func freshExp(t testing.TB, id string, o Options) *Result {
	t.Helper()
	r, err := ByID(id).Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// quick returns reduced-op options for shape tests.
func quick() Options { return Options{Ops: 1200} }
