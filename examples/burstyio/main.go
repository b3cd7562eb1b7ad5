// Bursty I/O: the paper's Listing 2 — a burst-buffer style application that
// writes and reads data in blocks, splitting each block into chunks that
// scatter across 4 Memcached servers, issuing every chunk with the
// non-blocking API and guaranteeing completion block by block.
//
//	go run ./examples/burstyio
package main

import (
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

func main() {
	cl := cluster.New(cluster.Config{
		Design:    cluster.HRDMAOptNonBI,
		Profile:   cluster.ClusterB(), // NVMe testbed
		Servers:   4,
		ServerMem: 16 << 20,
	})
	c := cl.Clients[0]

	bc := workload.BlockConfig{
		BlockSize:  2 << 20,    // 2 MB blocks
		ChunkSize:  256 * 1024, // 256 KB chunks (key-value pairs)
		TotalBytes: 32 << 20,   // 32 MB of checkpoint data
	}

	cl.Env.Spawn("burst-writer", func(p *sim.Proc) {
		t0 := p.Now()
		for blk := 0; blk < bc.Blocks(); blk++ {
			// Issue all chunks of the block without blocking
			// (memcached_iset), then wait for the whole block
			// (memcached_wait) — completion is guaranteed block by block.
			reqs := make([]*core.Req, 0, bc.ChunksPerBlock())
			for ch := 0; ch < bc.ChunksPerBlock(); ch++ {
				req, err := c.ISet(p, bc.ChunkKey(blk, ch), bc.ChunkSize, blk, 0)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, req)
			}
			c.WaitAll(p, reqs)
			for _, r := range reqs {
				c.Release(r) // the next block's requests reuse the handles
			}
		}
		wrote := p.Now() - t0
		fmt.Printf("wrote %d blocks (%d MB) in %v of virtual time — %.0f MB/s\n",
			bc.Blocks(), bc.TotalBytes>>20, wrote,
			float64(bc.TotalBytes)/wrote.Seconds()/1e6)

		// Read the data back, again overlapping all chunks of a block.
		t0 = p.Now()
		for blk := 0; blk < bc.Blocks(); blk++ {
			reqs := make([]*core.Req, 0, bc.ChunksPerBlock())
			for ch := 0; ch < bc.ChunksPerBlock(); ch++ {
				req, err := c.IGet(p, bc.ChunkKey(blk, ch))
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, req)
			}
			c.WaitAll(p, reqs)
			for _, r := range reqs {
				if r.Value != blk {
					panic("chunk verification failed")
				}
				c.Release(r)
			}
		}
		read := p.Now() - t0
		fmt.Printf("read  %d blocks back and verified them in %v — %.0f MB/s\n",
			bc.Blocks(), read, float64(bc.TotalBytes)/read.Seconds()/1e6)
	})
	cl.Env.Run()

	for i, srv := range cl.Servers {
		fmt.Printf("server %d stored %d chunks\n", i, srv.Store().Len())
	}
}
