package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// record is one machine-readable result row: experiment id, the design the
// metric belongs to (the cell's, empty for cross-design metrics), the
// metric name, and its value. BENCH_<id>.json files hold a sorted array of
// these so perf trajectories diff cleanly across commits.
type record struct {
	Experiment string  `json:"experiment"`
	Design     string  `json:"design,omitempty"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
}

// key is the record's identity within its experiment: design.metric.
func (r record) key() string {
	if r.Design != "" {
		return r.Design + "." + r.Metric
	}
	return r.Metric
}

// sorted returns the results' records, each experiment's sorted by key.
func sorted(results []*Result) []record {
	var out []record
	for _, r := range results {
		recs := append([]record(nil), r.records...)
		sort.Slice(recs, func(i, j int) bool { return recs[i].key() < recs[j].key() })
		out = append(out, recs...)
	}
	return out
}

// WriteJSON emits the results' metric records as an indented JSON array.
func WriteJSON(w io.Writer, results []*Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(sorted(results))
}

// Verify is the golden gate: it compares the fresh results against the
// committed records read from committed, record by record and exactly, and
// prints one line per record that changed, is missing from the fresh run,
// or is extra in it — experiment, design.metric, committed value, fresh
// value ("-" where a side has none) — then returns how many there were.
// Committed records of experiments that were not run are not compared.
func Verify(w io.Writer, committed io.Reader, results []*Result) (int, error) {
	var want []record
	if err := json.NewDecoder(committed).Decode(&want); err != nil {
		return 0, fmt.Errorf("bench: committed records: %w", err)
	}
	ran := map[string]bool{}
	for _, r := range results {
		ran[r.ID] = true
	}
	type id struct{ exp, key string }
	old := map[id]float64{}
	for _, r := range want {
		if ran[r.Experiment] {
			old[id{r.Experiment, r.key()}] = r.Value
		}
	}
	diffs := 0
	line := func(k id, committed, fresh string) {
		diffs++
		fmt.Fprintf(w, "%-12s %-52s %18s %18s\n", k.exp, k.key, committed, fresh)
	}
	num := func(v float64) string { return fmt.Sprintf("%v", v) }
	for _, r := range sorted(results) {
		k := id{r.Experiment, r.key()}
		switch v, ok := old[k]; {
		case !ok:
			line(k, "-", num(r.Value))
		case v != r.Value:
			line(k, num(v), num(r.Value))
		}
		delete(old, k)
	}
	missing := make([]id, 0, len(old))
	for k := range old {
		missing = append(missing, k)
	}
	sort.Slice(missing, func(i, j int) bool {
		return missing[i].exp < missing[j].exp || missing[i].exp == missing[j].exp && missing[i].key < missing[j].key
	})
	for _, k := range missing {
		line(k, num(old[k]), "-")
	}
	return diffs, nil
}
