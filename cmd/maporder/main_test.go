package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fixture is one package of map ranges: the ones the check must name end
// their `for` line with `// want`.
const fixture = `package fixture

import (
	"slices"
	"sort"
)

func unmarked(m map[string]int) (n int) {
	for _, v := range m { // want
		n += v
	}
	return n
}

func markedOnTheLine(m map[string]int) (n int) {
	for _, v := range m { // order-free: a sum
		n += v
	}
	return n
}

func markedAbove(m map[string]int) (n int) {
	// order-free: a sum
	for _, v := range m {
		n += v
	}
	return n
}

func sortsWhatItCollects(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortsWithSlices(m map[int]bool) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func sortsSomethingElse(m map[string]int, other []string) []string {
	var keys []string
	for k := range m { // want
		keys = append(keys, k)
	}
	sort.Strings(other)
	return keys
}

func sortsBeforeCollecting(m map[string]int) []string {
	var keys []string
	sort.Strings(keys)
	for k := range m { // want
		keys = append(keys, k)
	}
	return keys
}

func overASlice(s []int) (n int) {
	for _, v := range s {
		n += v
	}
	return n
}
`

// The check names exactly the map ranges that neither carry the marker nor
// sort the slice they append to after the range: a sort of another slice, or
// one before the range, does not count.
func TestCheckNamesUnorderedMapRanges(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module example.com/m\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := filepath.Join(root, "fixture")
	if err := os.Mkdir(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(pkg, "fixture.go")
	if err := os.WriteFile(file, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, line := range strings.Split(fixture, "\n") {
		if strings.HasSuffix(line, "// want") {
			want = append(want, file+":"+strconv.Itoa(i+1)+":")
		}
	}
	got, err := checkTree(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("named %d ranges, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("finding %d: %s, want one at %s", i, got[i], want[i])
		}
	}
}
