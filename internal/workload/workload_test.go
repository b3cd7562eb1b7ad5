package workload

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestZipfSkew(t *testing.T) {
	g := New(Config{Keys: 10000, Pattern: Zipf, ReadFraction: 1, Seed: 1})
	counts := make(map[string]int)
	const n = 200000
	for i := 0; i < n; i++ {
		_, key := g.Next()
		counts[key]++
	}
	// The hottest key of a zipf(0.99) over 10k keys draws ≈10% of requests.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	frac := float64(max) / n
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("hottest key draws %.2f%%, want ≈10%%", frac*100)
	}
	// Far fewer distinct keys touched than uniform would touch.
	if len(counts) > 9000 {
		t.Errorf("zipf touched %d of 10000 keys; not skewed", len(counts))
	}
}

func TestUniformCoverage(t *testing.T) {
	g := New(Config{Keys: 1000, Pattern: Uniform, ReadFraction: 1, Seed: 2})
	counts := make(map[string]int)
	const n = 100000
	for i := 0; i < n; i++ {
		_, key := g.Next()
		counts[key]++
	}
	if len(counts) < 990 {
		t.Errorf("uniform touched only %d of 1000 keys", len(counts))
	}
	for key, c := range counts {
		if math.Abs(float64(c)-100) > 60 {
			t.Errorf("key %s drawn %d times, want ≈100", key, c)
			break
		}
	}
}

func TestReadFractionMix(t *testing.T) {
	g := New(Config{Keys: 100, Pattern: Uniform, ReadFraction: 0.5, Seed: 4})
	gets := 0
	const n = 20000
	for i := 0; i < n; i++ {
		op, _ := g.Next()
		if op == OpGet {
			gets++
		}
	}
	frac := float64(gets) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("read fraction %.3f, want ≈0.5", frac)
	}
	readOnly := New(Config{Keys: 100, Pattern: Uniform, ReadFraction: 1, Seed: 5})
	for i := 0; i < 1000; i++ {
		if op, _ := readOnly.Next(); op != OpGet {
			t.Fatalf("read-only mix produced a set")
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []string {
		g := New(Config{Keys: 1000, Pattern: Zipf, ReadFraction: 0.5, Seed: 42})
		var out []string
		for i := 0; i < 500; i++ {
			op, k := g.Next()
			out = append(out, k+string(rune('0'+int(op))))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestScrambleStaysInRange(t *testing.T) {
	for rank := 0; rank < 100000; rank++ {
		idx := scramble(rank, 777)
		if idx < 0 || idx >= 777 {
			t.Fatalf("scramble(%d,777) = %d out of range", rank, idx)
		}
	}
}

func TestBlockConfig(t *testing.T) {
	b := BlockConfig{BlockSize: 2 << 20, ChunkSize: 256 * 1024, TotalBytes: 64 << 20}
	if b.Blocks() != 32 {
		t.Errorf("blocks %d, want 32", b.Blocks())
	}
	if b.ChunksPerBlock() != 8 {
		t.Errorf("chunks/block %d, want 8", b.ChunksPerBlock())
	}
	if b.ChunkKey(1, 2) == b.ChunkKey(1, 3) || b.ChunkKey(1, 2) == b.ChunkKey(2, 2) {
		t.Errorf("chunk keys collide")
	}
}

func TestZipfCDFMonotone(t *testing.T) {
	cdf := zipfCDF(1000, 0.99)
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
		t.Errorf("CDF does not end at 1: %v", cdf[len(cdf)-1])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
}

// Generators of one shape built at once on several goroutines — as mc-bench
// runs cells — share one table, equal to a fresh computation, and draw the
// stream a lone generator of the seed draws.
func TestZipfCDFSharedAcrossGoroutines(t *testing.T) {
	const n, s = 4321, 0.77
	cfg := Config{Keys: n, ZipfS: s, Pattern: Zipf, ReadFraction: 1, Seed: 5}
	gens := make([]*Generator, 8)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gens[i] = New(cfg)
		}()
	}
	wg.Wait()
	want := newZipfCDF(n, s)
	lone := New(cfg)
	for i, g := range gens {
		if &g.cdf[0] != &gens[0].cdf[0] {
			t.Errorf("generator %d has a table of its own", i)
		}
		for k, v := range g.cdf {
			if v != want[k] {
				t.Fatalf("generator %d: cdf[%d] = %v, want %v", i, k, v, want[k])
			}
		}
	}
	for range 100 {
		_, key := lone.Next()
		for i, g := range gens {
			if _, got := g.Next(); got != key {
				t.Fatalf("generator %d drew %q, a lone one %q", i, got, key)
			}
		}
	}
}

// Keys are rendered once and served from the generator's table after that:
// the strings are the ones Sprintf would give, inside the keyspace and out
// (KeyOf's, for a non-negative index: ten digits, and more once an index
// needs them), and a draw from a warmed generator allocates nothing.
func TestKeyTableRendersCanonicalKeysOnce(t *testing.T) {
	g := New(Config{Keys: 1000, Seed: 9})
	for _, i := range []int{0, 7, 9, 10, 63, 64, 999, 1000, 4095, 123456, 9_999_999_999, 10_000_000_000, -3} {
		want := fmt.Sprintf("obj:%010d", i)
		if got := g.Key(i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
		if i >= 0 && KeyOf(i) != want {
			t.Errorf("KeyOf(%d) = %q, want %q", i, KeyOf(i), want)
		}
	}
	for _, pattern := range []Pattern{Uniform, Zipf} {
		g := New(Config{Keys: 4096, ReadFraction: 0.5, Pattern: pattern, Seed: 3})
		for i := 0; i < 4096; i++ {
			g.Key(i)
		}
		if got := testing.AllocsPerRun(1000, func() { g.Next() }); got != 0 {
			t.Errorf("pattern %v: Next on a warmed generator allocates %v times", pattern, got)
		}
	}
}
