package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"

	"hybridkv/internal/sim"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1) // 1..1000
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got, ok := percentile(s, c.q)
		if !ok || got != c.want {
			t.Errorf("percentile(1..1000, %v) = %d, %v; want %d, true", c.q, got, ok, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i)
	}
	// p999 of 1000 samples is rank 999: one sample beyond.
	if _, ok := percentile(s, 0.999); ok {
		t.Errorf("p999 of 1000 samples reported with 1 sample beyond it")
	}
	// p99 of 1000 is rank 990: exactly ten beyond.
	if _, ok := percentile(s, 0.99); !ok {
		t.Errorf("p99 of 1000 samples withheld with 10 samples beyond it")
	}
	if _, ok := percentile(s[:999], 0.99); ok {
		t.Errorf("p99 of 999 samples reported with 9 samples beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Errorf("percentile of no samples reported")
	}
}

// fakePass builds a pass whose recorder holds n GET and m SET latencies.
func fakePass(n, m int, hostUS float64) *pass {
	p := &pass{Ops: n + m, Correct: n + m, VirtualNS: 1e9, SetupS: 1}
	for i := 0; i < n; i++ {
		p.Get = append(p.Get, int64(1000+i))
	}
	for i := 0; i < m; i++ {
		p.Set = append(p.Set, int64(2000+i))
	}
	p.HostNS = int64(hostUS * float64(p.Ops) * 1e3)
	p.Mallocs, p.Bytes = uint64(10*p.Ops), uint64(100*p.Ops)
	return p
}

func endToEndNames() []string {
	var names []string
	for _, d := range endToEndDefs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func keys(m map[string]metric) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestEndToEndReportsExactlyTheDeclaredMetrics(t *testing.T) {
	m := endToEnd([]*pass{fakePass(20000, 20000, 5), fakePass(20000, 20000, 4), fakePass(20000, 20000, 6)})
	if got, want := keys(m), endToEndNames(); !slices.Equal(got, want) {
		t.Errorf("end-to-end metrics %v, declared %v", got, want)
	}
	for _, d := range endToEndDefs {
		if m[d.name].Unit != d.unit {
			t.Errorf("%s has unit %q, declared %q", d.name, m[d.name].Unit, d.unit)
		}
		if m[d.name].Value == 0 {
			t.Errorf("%s is 0", d.name)
		}
	}
}

func TestEndToEndOmitsWhatItCannotMeasure(t *testing.T) {
	// No SETs at all, and too few GETs for a p999.
	m := endToEnd([]*pass{fakePass(2000, 0, 5)})
	for _, name := range []string{"set_mean_us", "set_p99_us", "set_p999_us", "get_p999_us"} {
		if v, ok := m[name]; ok {
			t.Errorf("%s reported as %v from too few samples", name, v.Value)
		}
	}
	for _, name := range []string{"get_mean_us", "get_p99_us"} {
		if _, ok := m[name]; !ok {
			t.Errorf("%s missing", name)
		}
	}
}

func TestFastestMedianSpread(t *testing.T) {
	if got := fakePass(100, 100, 4).hostUSPerOp(); math.Abs(got-4) > 1e-9 {
		t.Errorf("hostUSPerOp = %v, want 4", got)
	}
	if got := fastest([]float64{3, 1, 2}); got != 1 {
		t.Errorf("fastest = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("spread = %v, want (12-9)/10", got)
	}
}

func TestScheduleIsPoissonAndSeeded(t *testing.T) {
	const n, mean = 200000, 1500.0
	mk := func(seed int64) *schedule {
		return &schedule{rng: rand.New(rand.NewSource(seed)), mean: mean, due: 7 * sim.Microsecond}
	}
	a, b, c := mk(1), mk(1), mk(2)
	var prev, last sim.Time = 7 * sim.Microsecond, 0
	var sumSq float64
	same := true
	for i := 0; i < n; i++ {
		due := a.next()
		if due < prev {
			t.Fatalf("due time went backwards: %v after %v", due, prev)
		}
		if b.next() != due {
			t.Fatalf("same seed, different due time at arrival %d", i)
		}
		if c.next() != due {
			same = false
		}
		gap := float64(due - prev)
		sumSq += gap * gap
		prev, last = due, due
	}
	if same {
		t.Errorf("seeds 1 and 2 give the same arrivals")
	}
	gotMean := float64(last-7*sim.Microsecond) / n
	if math.Abs(gotMean-mean)/mean > 0.01 {
		t.Errorf("mean gap %v ns, want %v within 1%%", gotMean, mean)
	}
	// Exponential gaps: variance equals the squared mean.
	if cv2 := (sumSq/n - gotMean*gotMean) / (gotMean * gotMean); math.Abs(cv2-1) > 0.03 {
		t.Errorf("squared coefficient of variation %v, want 1 (exponential gaps)", cv2)
	}
}

func TestLateShareCountsOnlyOpsPastTheGrace(t *testing.T) {
	r := &recorder{}
	due := 10 * sim.Microsecond
	r.arrived(due, due)
	r.arrived(due+lateAfter, due) // exactly at the grace: on time
	r.arrived(due+lateAfter+1, due)
	r.arrived(due+5*sim.Microsecond, due)
	if r.late != 2 {
		t.Errorf("late = %d, want 2", r.late)
	}
}

func TestOrderKeepsConflictingOpsOfAKeyApart(t *testing.T) {
	env := sim.NewEnv()
	r := newRecorder(4, 16, 0.5, nil)
	var got []string
	op := func(name string, at sim.Time, set bool, idx int) {
		env.SpawnAt(at, name, func(p *sim.Proc) {
			me := r.order(p, nil, set, idx)
			got = append(got, fmt.Sprintf("%s@%d", name, p.Now()))
			p.Sleep(10)
			me.settle(nil)
		})
	}
	op("get1", 0, false, 1)
	op("get2", 1, false, 1) // GETs share a key
	op("set3", 2, true, 1)  // waits for both GETs, done at 10 and 11
	op("get4", 3, false, 1) // queued behind set3, not let in ahead of it
	op("set5", 4, true, 2)  // another key
	env.Run()
	want := []string{"get1@0", "get2@1", "set5@4", "set3@11", "get4@21"}
	if !slices.Equal(got, want) {
		t.Errorf("ops went ahead as %v, want %v", got, want)
	}
	if r.keyWaits != 2 || r.keyWaitTime != (11-2)+(21-3) {
		t.Errorf("%d ops waited %d ns, want 2 and 27", r.keyWaits, r.keyWaitTime)
	}
}

func TestReplyCheck(t *testing.T) {
	r := newRecorder(8, 16, 0.5, nil)
	v := r.nextValue(3)
	for _, c := range []struct {
		idx  int
		v    any
		want bool
	}{
		{3, "v3", true},               // the preload's value
		{3, "v4", false},              // another key's preload
		{3, v, true},                  // a version handed out
		{3, val{3, v.ver + 1}, false}, // a version never written
		{4, v, false},                 // another key's value
		{3, nil, false},               // OK with no value
		{3, "", false},
	} {
		if got := r.validValue(c.idx, c.v); got != c.want {
			t.Errorf("validValue(%d, %#v) = %v, want %v", c.idx, c.v, got, c.want)
		}
	}
	r.checkReply(false, 3, nil, nil, 5, 9)
	r.checkReply(false, 3, statusErr(1<<7-1), nil, 5, 8)
	if r.fail != (failures{Errors: 1, Wrong: 1}) || r.attempted() != 2 || r.lastDone != 9 {
		t.Errorf("failures %+v, attempted %d, last completion %v", r.fail, r.attempted(), r.lastDone)
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{name: "get_p99_us", bound: 0.05}
	tput := metricDef{name: "goodput_kops", higher: true, bound: 0.05}
	host := metricDef{name: "setup_s", bound: 0.15, timed: true}
	for _, c := range []struct {
		def          metricDef
		a, b, spread float64
		want         string
	}{
		{lat, 100, 104, 0, "ok"},
		{lat, 100, 106, 0, "worse"},
		{lat, 100, 50, 0, "ok"},
		{tput, 100, 96, 0, "ok"},
		{tput, 100, 94, 0, "worse"},
		{tput, 100, 200, 0, "ok"},
		{host, 100, 120, 0.05, "worse"},
		{host, 100, 120, 0.20, "unresolved"},
		{lat, 100, 120, 0.20, "worse"}, // host noise does not excuse a virtual metric
	} {
		if got := verdict(c.def, c.a, c.b, c.spread); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, spread %v) = %s, want %s", c.def.name, c.a, c.b, c.spread, got, c.want)
		}
	}
}

func TestCompareCountsALostMeasurementAsWorse(t *testing.T) {
	rep := func(workloads ...string) *report {
		r := &report{}
		for _, w := range workloads {
			r.Workloads = append(r.Workloads, &result{Workload: w, EndToEnd: map[string]metric{
				"get_p99_us": {Value: 10}, "set_p999_us": {Value: 90},
			}})
		}
		return r
	}
	a := rep("read-hot", "write-spill")
	if n := compareReports(io.Discard, a, rep("read-hot", "write-spill")); n != 0 {
		t.Errorf("a report against itself has %d rows worse", n)
	}
	var out bytes.Buffer
	if n := compareReports(&out, a, rep("read-hot")); n != 1 || !bytes.Contains(out.Bytes(), []byte("write-spill")) {
		t.Errorf("B lost a workload: %d rows worse, want 1:\n%s", n, out.String())
	}
	b := rep("read-hot", "write-spill")
	delete(b.Workloads[1].EndToEnd, "set_p999_us")
	if n := compareReports(io.Discard, a, b); n != 1 {
		t.Errorf("B lost set_p999_us: %d rows worse, want 1", n)
	}
	delete(a.Workloads[1].EndToEnd, "set_p999_us")
	a.Workloads[1].EndToEnd["get_p99_us"] = metric{Value: 9}
	if n := compareReports(io.Discard, a, b); n != 1 {
		t.Errorf("B 11%% worse on one metric A has, equal elsewhere: %d rows worse, want 1", n)
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesTheProgram(t *testing.T) {
	m := loadManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if m.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, but op counts are sized for %d", m.RunSeconds, refSeconds)
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, program has %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		use(w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q in the manifest and %q in the program (or their reasons differ)", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}

	if len(m.EndToEnd) > 16 || len(m.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics declared, program has %d", len(m.EndToEnd), len(endToEndDefs))
	}
	for i, e := range m.EndToEnd {
		use(e.Name)
		d := endToEndDefs[i]
		better := "lower"
		if d.higher {
			better = "higher"
		}
		if e.Name != d.name || e.Unit != d.unit || e.Better != better || e.Bound != d.bound {
			t.Errorf("end-to-end metric %d: manifest %+v, program %+v", i, e, d)
		}
		if !unit.MatchString(e.Unit) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v out of range", e.Name, e.Unit, e.Bound)
		}
	}

	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared", len(m.PerLayer))
	}
	for _, p := range m.PerLayer {
		use(p.Name)
		if !unit.MatchString(p.Unit) || (p.Better != "lower" && p.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", p.Name, p.Unit, p.Better)
		}
	}
}

// TestTracedRunReportsExactlyTheDeclaredLayers runs one small traced
// workload end to end: passes, traced pass, layer drivers, span file.
func TestTracedRunReportsExactlyTheDeclaredLayers(t *testing.T) {
	t.Parallel()
	m := loadManifest(t)
	declared := map[string]string{}
	for _, p := range m.PerLayer {
		declared[p.Name] = p.Unit
	}
	sp := specByName("write-spill")
	res, err := runWorkload(sp, options{seed: 5, seconds: refSeconds * 0.02, trace: true, outDir: t.TempDir(), isoCalls: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted != passes*res.OpsPass {
		t.Errorf("attempted %d, failed %d, want %d and 0", res.Attempted, res.Failed, passes*res.OpsPass)
	}
	for n, v := range res.PerLayer {
		if u, ok := declared[n]; !ok || u != v.Unit {
			t.Errorf("program reports %s in %q; manifest has %q (declared: %v)", n, v.Unit, u, ok)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s is %v", n, v.Value)
		}
	}
	for n := range declared {
		if _, ok := res.PerLayer[n]; !ok {
			t.Errorf("manifest declares %s; the program does not report it", n)
		}
	}
	for n := range res.EndToEnd {
		if !slices.Contains(endToEndNames(), n) {
			t.Errorf("program reports undeclared end-to-end metric %s", n)
		}
	}
	line, err := driverLine(res, true)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   *bool                     `json:"correct"`
		Attempted *int                      `json:"attempted"`
		Failed    *int                      `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(line, &out); err != nil || out.Correct == nil || out.Attempted == nil || out.Failed == nil {
		t.Fatalf("driver line %s: %v", line, err)
	}
	if len(out.Metrics) != len(declared) {
		t.Errorf("driver line has %d metrics, want %d", len(out.Metrics), len(declared))
	}
	spans, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * res.OpsPass; countLines(spans) != want {
		t.Errorf("%d spans written, want %d (op, core.issue, core.wait per op)", countLines(spans), want)
	}
}

func countLines(b []byte) int {
	n := 0
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}

// TestDeterminism is the -check gate at a size that fits tier-1: every
// workload's deployment, generator and layer drivers run twice on one seed
// and once on another.
func TestDeterminism(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			if err := checkWorkload(sp, 1, checkSeconds/2, 500); err != nil {
				t.Error(err)
			}
		})
	}
}
