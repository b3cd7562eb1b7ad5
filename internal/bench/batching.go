package bench

import (
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/metrics"
	"hybridkv/internal/workload"
)

// This file is the doorbell-batching experiment: the same six designs driven
// in coalescing windows of 1, 4, 16 and 64 operations. Batch size 1 never
// opens a window — it exercises exactly the pre-batching issue path — so the
// sweep isolates what coalescing buys: fewer wire sends (credits), a single
// receive-repost per frame, and merged eviction flushes on the server.

// batchPageSize is the slab page size for the batching sweep: 128 KB pages
// make eviction granularity a few 32 KB Sets, so a 16-op window really does
// contain several evictions for the merged flush to amortize. (At the 1 MB
// memcached default an eviction happens only every ~25 Sets and a window
// rarely sees two.)
const batchPageSize = 128 << 10

// batchCell is one sweep cell: design d with the fine-eviction slab
// geometry, mem bytes of memory overcommitted 1.5x (so Sets evict to SSD),
// ops operations of w in windows of batch.
func batchCell(d cluster.Design, mem int64, kv, ops int, w workload.Config, batch int) cell {
	sp := paperSpec(d, cluster.ClusterA(), mem, mem*3/2, kv)
	sp.SlabPageSize = batchPageSize
	return cell{design: d.String(), row: d.String(), spec: sp, drive: func(cl *cluster.Cluster, r *run) {
		driveBatched(cl, sp.gen(w), ops, batch, r)
	}}
}

// batching sweeps batch {1,4,16,64} × {uniform, zipf} × {read-only, 50:50}
// over all six designs and reports ops/s, p50/p99, wire sends (credits),
// and eviction flush writes.
var batchingExp = Experiment{
	ID: "batching", Title: "Doorbell batching: batch size sweep over every design", tablesOnly: true,
	cells: func(o Options) (cells []cell) {
		mem := int64(24 << 20)
		if o.Full {
			mem = 96 << 20
		}
		_, kv, _ := o.geometry()
		ops := o.ops(1200)
		for _, pat := range []workload.Pattern{workload.Uniform, workload.Zipf} {
			for _, mix := range []mix{{"read-only", 1.0}, {"50:50", 0.5}} {
				for _, d := range cluster.Designs {
					for _, b := range []int{1, 4, 16, 64} {
						w := zipf(mix.read, 7)
						w.Pattern = pat
						c := batchCell(d, mem, kv, ops, w, b)
						at := fmt.Sprintf("%s / %s", pat, mix.name)
						c.prefix = fmt.Sprintf("%s.%s.b%d.", pat, mix.name, b)
						c.collect = func(_ *cluster.Cluster, r *run) {
							tput := metrics.Throughput(r.Ops, r.Elapsed)
							r.plotAt("Throughput, "+at, fmt.Sprintf("b%d kop/s", b), r.cell.row, tput/1000)
							if mix.read < 1 {
								r.plotAt("Eviction flush writes, "+at, fmt.Sprintf("b%d flushes", b), r.cell.row, float64(r.FlushWrites))
							}
							r.set("ops_s", tput)
							r.set("p50_us", us(r.Lat.Quantile(0.50)))
							r.set("p99_us", us(r.Lat.Quantile(0.99)))
							r.set("sends", float64(r.Sends))
							r.set("frames", float64(r.Frames))
							r.set("ssd_writes", float64(r.FlushWrites))
						}
						cells = append(cells, c)
					}
				}
			}
		}
		return cells
	},
}
