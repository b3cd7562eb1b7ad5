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
	// Both sides by (experiment, key), each value in its shortest exact
	// form: two floats print alike only if they are the same float.
	type sides struct{ committed, fresh string }
	rows := map[[2]string]*sides{}
	side := func(r record) *sides {
		k := [2]string{r.Experiment, r.key()}
		if rows[k] == nil {
			rows[k] = &sides{"-", "-"}
		}
		return rows[k]
	}
	for _, r := range want {
		if ran[r.Experiment] {
			side(r).committed = fmt.Sprint(r.Value)
		}
	}
	for _, r := range sorted(results) {
		side(r).fresh = fmt.Sprint(r.Value)
	}
	keys := make([][2]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	diffs := 0
	for _, k := range keys {
		if s := rows[k]; s.committed != s.fresh {
			diffs++
			fmt.Fprintf(w, "%-12s %-52s %18s %18s\n", k[0], k[1], s.committed, s.fresh)
		}
	}
	return diffs, nil
}
