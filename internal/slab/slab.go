// Package slab implements Memcached's slab memory allocator: memory is
// reserved in fixed-size pages (1 MB by default) which are divided into
// equal chunks belonging to a slab class; an item is stored in the smallest
// class whose chunk fits it. The allocator prevents fragmentation from
// churning mixed-size items and gives the hybrid design its eviction
// granularity — on memory pressure, roughly one page worth of LRU items
// from a class is flushed to the SSD at once.
package slab

import (
	"fmt"
	"math"
)

// DefaultPageSize is Memcached's slab page size.
const DefaultPageSize = 1 << 20

// The class geometry, as Memcached's: class 0's chunk size, and the
// chunk-size ratio between consecutive classes.
const (
	minChunk     = 96
	growthFactor = 1.25
)

// Config sets the page size and memory budget.
type Config struct {
	// PageSize is the slab page size in bytes (default 1 MB).
	PageSize int
	// MemLimit is the total slab memory budget in bytes (the -m flag).
	MemLimit int64
}

func (c *Config) fill() {
	if c.PageSize <= 0 {
		c.PageSize = DefaultPageSize
	}
	if c.MemLimit <= 0 {
		c.MemLimit = 64 << 20
	}
}

// Class is one slab class's accounting.
type Class struct {
	Index      int
	ChunkSize  int
	ChunksPage int // chunks per page
	Pages      int
	UsedChunks int
	FreeChunks int
}

// Allocator is the slab allocator state for one server.
type Allocator struct {
	cfg     Config
	classes []Class
	memUsed int64
}

// New builds an allocator with classes spanning minChunk up to PageSize.
func New(cfg Config) *Allocator {
	cfg.fill()
	a := &Allocator{cfg: cfg}
	size := minChunk
	for idx := 0; ; idx++ {
		if size > cfg.PageSize {
			break
		}
		a.classes = append(a.classes, Class{
			Index:      idx,
			ChunkSize:  size,
			ChunksPage: cfg.PageSize / size,
		})
		next := int(math.Ceil(float64(size) * growthFactor))
		// Memcached aligns chunk sizes to 8 bytes.
		next = (next + 7) &^ 7
		if next == size {
			next += 8
		}
		size = next
	}
	// Ensure a top class of exactly one chunk per page.
	last := &a.classes[len(a.classes)-1]
	if last.ChunkSize != cfg.PageSize {
		a.classes = append(a.classes, Class{
			Index:      len(a.classes),
			ChunkSize:  cfg.PageSize,
			ChunksPage: 1,
		})
	}
	return a
}

// Config returns the allocator's effective configuration.
func (a *Allocator) Config() Config { return a.cfg }

// NumClasses returns the number of slab classes.
func (a *Allocator) NumClasses() int { return len(a.classes) }

// Class returns a snapshot of class idx.
func (a *Allocator) Class(idx int) Class { return a.classes[idx] }

// MemUsed returns bytes of slab memory currently reserved in pages.
func (a *Allocator) MemUsed() int64 { return a.memUsed }

// ClassFor returns the smallest class whose chunks fit an item of the given
// total size (key + value + overhead). ok is false for oversized items.
func (a *Allocator) ClassFor(size int) (idx int, ok bool) {
	if size <= 0 {
		return 0, true
	}
	lo, hi := 0, len(a.classes)-1
	if size > a.classes[hi].ChunkSize {
		return 0, false
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if a.classes[mid].ChunkSize >= size {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// ChunkSize returns the chunk size of class idx.
func (a *Allocator) ChunkSize(idx int) int { return a.classes[idx].ChunkSize }

// AllocResult describes the outcome of an Alloc attempt.
type AllocResult int

const (
	// AllocOK means a chunk was reserved from existing free chunks.
	AllocOK AllocResult = iota
	// AllocNewPage means a chunk was reserved after growing the class by
	// one page (the caller may want to charge page-initialization cost).
	AllocNewPage
	// AllocNeedEvict means no free chunk exists and the memory limit
	// forbids a new page: the caller must evict before retrying.
	AllocNeedEvict
)

// Alloc reserves one chunk in class idx.
func (a *Allocator) Alloc(idx int) AllocResult {
	c := &a.classes[idx]
	if c.FreeChunks > 0 {
		c.FreeChunks--
		c.UsedChunks++
		return AllocOK
	}
	if a.memUsed+int64(a.cfg.PageSize) > a.cfg.MemLimit {
		return AllocNeedEvict
	}
	a.memUsed += int64(a.cfg.PageSize)
	c.Pages++
	c.FreeChunks += c.ChunksPage - 1
	c.UsedChunks++
	return AllocNewPage
}

// Free releases one chunk back to class idx.
func (a *Allocator) Free(idx int) {
	c := &a.classes[idx]
	if c.UsedChunks <= 0 {
		panic(fmt.Sprintf("slab: Free on class %d with no used chunks", idx))
	}
	c.UsedChunks--
	c.FreeChunks++
}

// ReclaimEmptyPage returns one page worth of entirely-free chunks from some
// class back to the global budget (slab reassignment), reporting success.
// Residency is tracked per class rather than per page, so a class qualifies
// once it holds at least a page worth of free chunks.
func (a *Allocator) ReclaimEmptyPage() bool {
	for i := range a.classes {
		c := &a.classes[i]
		if c.Pages > 0 && c.FreeChunks >= c.ChunksPage {
			c.FreeChunks -= c.ChunksPage
			c.Pages--
			a.memUsed -= int64(a.cfg.PageSize)
			return true
		}
	}
	return false
}

// Utilization returns the fraction of reserved slab memory holding live
// chunks, weighted by chunk size.
func (a *Allocator) Utilization() float64 {
	if a.memUsed == 0 {
		return 0
	}
	var live int64
	for _, c := range a.classes {
		live += int64(c.UsedChunks) * int64(c.ChunkSize)
	}
	return float64(live) / float64(a.memUsed)
}
