// Package workload generates the OHB-style micro-benchmark workloads the
// paper evaluates with (Section VI-A): uniform and Zipf-like skewed key
// access patterns, configurable key-value sizes, read:write operation
// mixes, and the block-based bursty I/O pattern that mimics burst-buffer
// workloads (Listing 2).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Pattern selects the key access distribution.
type Pattern int

const (
	// Zipf is a YCSB-style zipfian distribution: repeated requests hit a
	// small popular subset.
	Zipf Pattern = iota
	// Uniform picks keys uniformly at random.
	Uniform
	// Sequential sweeps the keyspace in order (preloads, scans).
	Sequential
)

func (pt Pattern) String() string {
	switch pt {
	case Zipf:
		return "zipf"
	case Uniform:
		return "uniform"
	case Sequential:
		return "sequential"
	}
	return fmt.Sprintf("Pattern(%d)", int(pt))
}

// OpKind is the operation type drawn from the mix.
type OpKind int

const (
	OpGet OpKind = iota
	OpSet
)

// Config describes one workload.
type Config struct {
	// Keys is the keyspace size.
	Keys int
	// ValueSize is the value size in bytes (the paper's "key-value pair
	// size" knob).
	ValueSize int
	// ReadFraction is the share of Gets (1.0 = read-only; 0.5 = the
	// paper's write-heavy 50:50 mix).
	ReadFraction float64
	// Pattern selects the distribution.
	Pattern Pattern
	// ZipfS is the zipfian exponent (default 0.99, YCSB's theta).
	ZipfS float64
	// Seed makes the stream reproducible.
	Seed int64
}

// Generator produces a deterministic operation stream.
type Generator struct {
	cfg Config
	rng *rand.Rand
	cdf []float64 // zipf cumulative distribution over ranks
	seq int
	// keys[i] is Key(i), rendered on first use — a draw costs a table read,
	// not a Sprintf. "" marks a block not rendered yet.
	keys []string
}

// New builds a generator.
func New(cfg Config) *Generator {
	if cfg.Keys <= 0 {
		panic("workload: Keys must be positive")
	}
	if cfg.ZipfS <= 0 {
		cfg.ZipfS = 0.99
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Pattern == Zipf {
		g.cdf = zipfCDF(cfg.Keys, cfg.ZipfS)
	}
	return g
}

// zipfCDF precomputes the cumulative rank distribution P(rank ≤ k) for a
// zipfian with exponent s over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// keyFormat is the canonical key of an index.
const keyFormat = "obj:%010d"

// keyBlock is how many neighbouring keys are rendered together, into one
// string they all slice: a first touch costs 1/keyBlock of an allocation.
const keyBlock = 64

// Key returns the canonical key for index i. Indexes inside the keyspace are
// rendered once and served from a table after that; any other index is
// rendered on the spot.
func (g *Generator) Key(i int) string {
	if i < 0 || i >= g.cfg.Keys {
		return fmt.Sprintf(keyFormat, i)
	}
	if g.keys == nil {
		g.keys = make([]string, g.cfg.Keys)
	}
	if g.keys[i] == "" {
		g.renderBlock(i)
	}
	return g.keys[i]
}

// renderBlock fills the table for the block of indexes around i.
func (g *Generator) renderBlock(i int) {
	lo := i &^ (keyBlock - 1)
	hi := min(lo+keyBlock, len(g.keys))
	var ends [keyBlock]int
	buf := make([]byte, 0, keyBlock*len("obj:0000000000"))
	for j := lo; j < hi; j++ {
		// keyFormat by hand: fmt would box j, an allocation per key.
		var digits [20]byte
		d := strconv.AppendInt(digits[:0], int64(j), 10)
		buf = append(buf, "obj:0000000000"[:4+max(0, 10-len(d))]...)
		buf = append(buf, d...)
		ends[j-lo] = len(buf)
	}
	all, start := string(buf), 0
	for j := lo; j < hi; j++ {
		g.keys[j] = all[start:ends[j-lo]]
		start = ends[j-lo]
	}
}

// nextIndex draws a key index per the configured pattern.
func (g *Generator) nextIndex() int {
	switch g.cfg.Pattern {
	case Uniform:
		return g.rng.Intn(g.cfg.Keys)
	case Sequential:
		i := g.seq % g.cfg.Keys
		g.seq++
		return i
	default: // Zipf
		// Scramble rank → key index so popular keys are spread across the
		// keyspace (and across servers), as YCSB does.
		return scramble(g.zipfRank(), g.cfg.Keys)
	}
}

// zipfRank draws a popularity rank from the precomputed CDF.
func (g *Generator) zipfRank() int {
	u := g.rng.Float64()
	lo, hi := 0, len(g.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cdf[mid] >= u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// scramble maps a popularity rank to a stable pseudo-random key index.
func scramble(rank, n int) int {
	x := uint64(rank)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// Next draws one operation: its kind and key.
func (g *Generator) Next() (OpKind, string) {
	if g.rng.Float64() < g.cfg.ReadFraction {
		return OpGet, g.Key(g.nextIndex())
	}
	return OpSet, g.Key(g.nextIndex())
}

// ValueSize returns the configured value size.
func (g *Generator) ValueSize() int { return g.cfg.ValueSize }

// BlockConfig describes the bursty block I/O pattern: data is read and
// written in blocks, each split into chunks that fit key-value pairs and
// may scatter across servers (Section IV-B).
type BlockConfig struct {
	// BlockSize is the block size in bytes (the paper uses 2 MB and 16 MB).
	BlockSize int
	// ChunkSize is the key-value pair size (the paper uses 256 KB).
	ChunkSize int
	// TotalBytes is the overall workload size (the paper uses 4 GB).
	TotalBytes int64
}

// Blocks returns the number of whole blocks in the workload.
func (b BlockConfig) Blocks() int {
	if b.BlockSize <= 0 {
		return 0
	}
	return int(b.TotalBytes / int64(b.BlockSize))
}

// ChunksPerBlock returns the chunks in one block.
func (b BlockConfig) ChunksPerBlock() int {
	if b.ChunkSize <= 0 {
		return 0
	}
	return (b.BlockSize + b.ChunkSize - 1) / b.ChunkSize
}

// ChunkKey names chunk c of block blk.
func (b BlockConfig) ChunkKey(blk, c int) string {
	return fmt.Sprintf("blk:%08d:chunk:%04d", blk, c)
}
