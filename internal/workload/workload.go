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
	"sync"
	"sync/atomic"

	"hybridkv/internal/protocol"
)

// Pattern selects the key access distribution.
type Pattern int

const (
	// Zipf is a YCSB-style zipfian distribution: repeated requests hit a
	// small popular subset.
	Zipf Pattern = iota
	// Uniform picks keys uniformly at random.
	Uniform
)

func (pt Pattern) String() string {
	switch pt {
	case Zipf:
		return "zipf"
	case Uniform:
		return "uniform"
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

// zipfCDFs memoises zipfCDF per (n, s): every generator of a run — and
// every cell of a registry run, which cells run on several goroutines at
// once — shares one read-only table per shape.
var (
	zipfMu   sync.Mutex
	zipfCDFs = map[zipfShape][]float64{}
)

type zipfShape struct {
	n int
	s float64
}

// zipfCDF returns the cumulative rank distribution P(rank ≤ k) for a
// zipfian with exponent s over n ranks, computed once per shape. Callers
// must not write to it.
func zipfCDF(n int, s float64) []float64 {
	zipfMu.Lock()
	defer zipfMu.Unlock()
	shape := zipfShape{n, s}
	cdf, ok := zipfCDFs[shape]
	if !ok {
		cdf = newZipfCDF(n, s)
		zipfCDFs[shape] = cdf
	}
	return cdf
}

func newZipfCDF(n int, s float64) []float64 {
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

// keyPrefix is the canonical key of index 0, and the prefix every other
// key's digits are padded into: the format "obj:%010d".
const keyPrefix = "obj:0000000000"

// KeyOf returns the canonical key of a non-negative index i, as
// fmt.Sprintf("obj:%010d", i) renders it but without boxing i.
func KeyOf(i int) string {
	var buf [len(keyPrefix) + 10]byte
	return string(appendKey(buf[:0], i))
}

// appendKey appends the canonical key of a non-negative index i to dst.
func appendKey(dst []byte, i int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(i), 10)
	dst = append(dst, keyPrefix[:len(keyPrefix)-min(10, len(d))]...)
	return append(dst, d...)
}

// keyBlock is how many neighbouring keys are rendered together, into one
// string they all slice: a first touch costs 1/keyBlock of an allocation.
const keyBlock = 64

// keyLen is the length of every key below tabledKeys, which the table
// serves: the prefix with the index's digits padded into it.
const keyLen = len(keyPrefix)

// tabledKeys bounds the indexes the key table serves: 10^10, the first whose
// key is longer than keyLen. It is a multiple of keyBlock, so every block of
// the table is whole.
const tabledKeys = 10_000_000_000

// chunkBlocks is how many blocks one chunk of the table's second level
// points to.
const chunkBlocks = 4096

// keyChunk is one second-level chunk of the table: each block rendered once,
// published atomically, never written again.
type keyChunk [chunkBlocks]atomic.Pointer[string]

// keyTable is the process's one table of rendered keys: every generator —
// and every cell of a registry run, which cells run on several goroutines at
// once — serves Key from it, so a keyspace is rendered once however many
// generators draw from it. Readers take no lock: the chunk list is replaced,
// never written in place, and a block is published whole. Rendering and
// growing take mu.
var keyTable struct {
	mu     sync.Mutex
	chunks atomic.Pointer[[]*keyChunk]
}

// Key returns the canonical key for index i. Indexes inside the keyspace are
// served from the process's key table, rendered there on first use by any
// generator; any other index is rendered on the spot.
func (g *Generator) Key(i int) string {
	switch {
	case i < 0:
		return fmt.Sprintf("obj:%010d", i)
	case i >= g.cfg.Keys || i >= tabledKeys:
		return KeyOf(i)
	}
	if k, ok := tabledKey(i); ok {
		return k
	}
	return renderKey(i)
}

// tabledKey returns Key(i) from the table, when its block is rendered.
func tabledKey(i int) (string, bool) {
	b := i / keyBlock
	chunks := keyTable.chunks.Load()
	if chunks == nil || b/chunkBlocks >= len(*chunks) || (*chunks)[b/chunkBlocks] == nil {
		return "", false
	}
	blk := (*chunks)[b/chunkBlocks][b%chunkBlocks].Load()
	if blk == nil {
		return "", false
	}
	off := i % keyBlock * keyLen
	return (*blk)[off : off+keyLen], true
}

// renderKey renders the block of indexes around i into the table, unless
// another generator got there first, and returns Key(i).
func renderKey(i int) string {
	keyTable.mu.Lock()
	defer keyTable.mu.Unlock()
	if k, ok := tabledKey(i); ok {
		return k
	}
	b := i / keyBlock
	var chunks []*keyChunk
	if p := keyTable.chunks.Load(); p != nil {
		chunks = *p
	}
	c := b / chunkBlocks
	if c >= len(chunks) || chunks[c] == nil {
		grown := make([]*keyChunk, max(len(chunks), c+1))
		copy(grown, chunks)
		grown[c] = new(keyChunk)
		keyTable.chunks.Store(&grown)
		chunks = grown
	}
	buf := make([]byte, 0, keyBlock*keyLen)
	for j := b * keyBlock; j < (b+1)*keyBlock; j++ {
		buf = appendKey(buf, j)
	}
	blk := string(buf)
	chunks[c][b%chunkBlocks].Store(&blk)
	k, _ := tabledKey(i)
	return k
}

// nextIndex draws a key index per the configured pattern.
func (g *Generator) nextIndex() int {
	switch g.cfg.Pattern {
	case Uniform:
		return g.rng.Intn(g.cfg.Keys)
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
	return int(protocol.Mix64(uint64(rank)) % uint64(n))
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
