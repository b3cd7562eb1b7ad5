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

// runExp runs a whole registry experiment or ablation by id.
func runExp(t testing.TB, id string, o Options) *Result {
	t.Helper()
	r, err := ByID(id).Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// quick returns reduced-op options for shape tests.
func quick() Options { return Options{Ops: 1200} }
