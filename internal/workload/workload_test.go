package workload

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"
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

// Keys are rendered once and served from the process's table after that:
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

// Every generator serves a key of its keyspace from the one table as a slice
// of its block, equal to KeyOf's rendering: at block and chunk edges, and on
// both sides of 10^10, the first index whose key is longer than the table's
// fixed 14 bytes.
func TestSharedKeyTableMatchesKeyOf(t *testing.T) {
	g := New(Config{Keys: tabledKeys + 1, Pattern: Uniform, Seed: 1})
	chunkEdge := keyBlock * chunkBlocks // the first index of the second chunk
	for _, i := range []int{0, 1, keyBlock - 1, keyBlock, keyBlock + 1, 2*keyBlock - 1,
		chunkEdge - 1, chunkEdge, chunkEdge + 1, tabledKeys - keyBlock, tabledKeys - 1, tabledKeys} {
		if got, want := g.Key(i), KeyOf(i); got != want {
			t.Errorf("Key(%d) = %q, KeyOf gives %q", i, got, want)
		}
		if k, ok := tabledKey(i); ok != (i < tabledKeys) || ok && k != KeyOf(i) {
			t.Errorf("index %d: table holds %q (%v)", i, k, ok)
		}
	}
	other := New(Config{Keys: 2 * keyBlock, Pattern: Uniform, Seed: 2})
	if a, b := g.Key(keyBlock+1), other.Key(keyBlock+1); unsafe.StringData(a) != unsafe.StringData(b) {
		t.Errorf("two generators render Key(%d) apart", keyBlock+1)
	}
}

// Eight generators on eight goroutines draw from one keyspace nothing has
// rendered yet, each rendering blocks the others read: every key is KeyOf's.
// Run under -race, this is the table's race check.
func TestSharedKeyTableAcrossGoroutines(t *testing.T) {
	const keys = 3 * keyBlock * chunkBlocks // three chunks, rendered by whoever comes first
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := New(Config{Keys: keys, Pattern: Uniform, ReadFraction: 0.5, Seed: int64(w)})
			for range 20000 {
				i := g.nextIndex()
				if got := g.Key(i); got != KeyOf(i) {
					errs <- fmt.Sprintf("generator %d: Key(%d) = %q", w, i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// A generator built after another has rendered its keyspace renders nothing
// itself: its first 1 000 draws allocate nothing. Each generator once kept a
// table of its own, and rendered the whole keyspace again.
func TestKeyTableAllocationCeiling(t *testing.T) {
	cfg := Config{Keys: 5000, Pattern: Zipf, ReadFraction: 0.95, Seed: 11}
	first := New(cfg)
	for i := range cfg.Keys {
		first.Key(i)
	}
	// AllocsPerRun calls its function once before it counts: the first
	// generator drawn by the warm-up, the counted run is the second's.
	gens := []*Generator{New(cfg), New(cfg)}
	n := 0
	got := testing.AllocsPerRun(1, func() {
		g := gens[n]
		n++
		for range 1000 {
			g.Next()
		}
	})
	if got != 0 {
		t.Errorf("a second generator's first 1000 draws: %v allocations, ceiling 0", got)
	}
}

// BenchmarkNext is the host cost of one draw from a generator whose keyspace
// is rendered.
func BenchmarkNext(b *testing.B) {
	g := New(Config{Keys: 8192, Pattern: Zipf, ReadFraction: 0.95, Seed: 1})
	for i := range 8192 {
		g.Key(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		g.Next()
	}
}
