package bench

import (
	"bytes"
	"strings"
	"testing"
)

// result builds a Result holding the given records.
func result(id string, recs ...record) *Result {
	r := &Result{ID: id, Metrics: map[string]float64{}}
	for _, rec := range recs {
		rec.Experiment = id
		r.records = append(r.records, rec)
		r.Metrics[rec.key()] = rec.Value
	}
	return r
}

// The golden gate's comparator: records written by WriteJSON verify clean
// against themselves; a changed value, a record missing from the fresh run
// and a record extra in it are each named on one line with both values;
// committed records of experiments that were not run are left alone.
func TestVerify(t *testing.T) {
	committed := []*Result{
		result("exp1",
			record{Design: "H-RDMA-Def", Metric: "avg_us", Value: 12.5},
			record{Metric: "ratio", Value: 3},
			record{Metric: "gone", Value: 7}),
		result("exp2", record{Metric: "other", Value: 1}),
	}
	var file bytes.Buffer
	if err := WriteJSON(&file, committed); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if n, err := Verify(&out, bytes.NewReader(file.Bytes()), committed); err != nil || n != 0 || out.Len() != 0 {
		t.Errorf("records against themselves: %d diffs, err %v, output %q", n, err, out.String())
	}

	fresh := result("exp1",
		record{Design: "H-RDMA-Def", Metric: "avg_us", Value: 12.75}, // changed
		record{Metric: "ratio", Value: 3},                            // same
		record{Metric: "new", Value: 9})                              // extra; "gone" is missing
	out.Reset()
	n, err := Verify(&out, bytes.NewReader(file.Bytes()), []*Result{fresh})
	if err != nil || n != 3 {
		t.Fatalf("got %d diffs, err %v; want 3\n%s", n, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := [][]string{
		{"exp1", "H-RDMA-Def.avg_us", "12.5", "12.75"},
		{"exp1", "gone", "7", "-"},
		{"exp1", "new", "-", "9"},
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, w := range want {
		if got := strings.Fields(lines[i]); strings.Join(got, " ") != strings.Join(w, " ") {
			t.Errorf("line %d = %q, want fields %q", i, lines[i], w)
		}
	}
	if strings.Contains(out.String(), "exp2") {
		t.Errorf("an experiment that was not run was compared:\n%s", out.String())
	}

	if _, err := Verify(&out, strings.NewReader("not json"), []*Result{fresh}); err == nil {
		t.Error("a malformed committed file verified")
	}
}

// The comparison is exact: the last bit of a float counts.
func TestVerifyIsExact(t *testing.T) {
	a, b := 0.1, 0.2 // variables: a constant 0.1 + 0.2 would fold to exactly 0.3
	var file bytes.Buffer
	if err := WriteJSON(&file, []*Result{result("e", record{Metric: "m", Value: a + b})}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if n, _ := Verify(&out, &file, []*Result{result("e", record{Metric: "m", Value: 0.3})}); n != 1 {
		t.Errorf("0.1+0.2 against 0.3: %d diffs, want 1", n)
	}
}
