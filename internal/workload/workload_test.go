package workload

import (
	"fmt"
	"math"
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

func TestSequentialSweeps(t *testing.T) {
	g := New(Config{Keys: 5, Pattern: Sequential, ReadFraction: 1, Seed: 3})
	var keys []string
	for i := 0; i < 7; i++ {
		_, k := g.Next()
		keys = append(keys, k)
	}
	if keys[0] != g.Key(0) || keys[4] != g.Key(4) || keys[5] != g.Key(0) {
		t.Errorf("sequential order wrong: %v", keys)
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

// Keys are rendered once and served from the generator's table after that:
// the strings are the ones Sprintf would give, inside the keyspace and out,
// and a draw from a warmed generator allocates nothing.
func TestKeyTableRendersCanonicalKeysOnce(t *testing.T) {
	g := New(Config{Keys: 1000, Seed: 9})
	for _, i := range []int{0, 7, 63, 64, 999, 1000, 123456, -3} {
		if got, want := g.Key(i), fmt.Sprintf("obj:%010d", i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
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
