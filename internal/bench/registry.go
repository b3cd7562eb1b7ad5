package bench

// Registry lists every experiment in paper order: the paper's own tables
// and figures, then the post-paper robustness experiments. `all` and
// -smoke mean exactly these.
var Registry = []Experiment{
	table1,
	fig1("fig1a", "Figure 1(a): Overall latency, data fits in memory", true),
	fig1("fig1b", "Figure 1(b): Overall latency, data does not fit in memory (miss penalty < 2 ms)", false),
	breakdown("fig2a", "Figure 2(a): Time-wise breakdown, data fits in memory", true, existing),
	breakdown("fig2b", "Figure 2(b): Time-wise breakdown, data does not fit in memory", false, existing),
	fig4,
	fig6("fig6a", "Figure 6(a): Breakdown with blocking and non-blocking APIs, data fits", true),
	fig6("fig6b", "Figure 6(b): Breakdown with blocking and non-blocking APIs, data does not fit", false),
	fig7a, fig7b, fig7c, fig8a, fig8b,
	faultsExp, batchingExp, recoveryExp, overloadExp, chaosExp, replicationExp,
	bypassExp, hotkeyExp, membershipExp, grayfailExp, bitrotExp,
}

// Ablations lists the ablation studies: addressable by id like any
// experiment, but not part of `all`.
var Ablations = []Experiment{
	ablZipf, ablWorkers, ablBuffer, ablCutoff, ablWindow, ablAsyncFlush, ablLibbuf,
}

// ByID finds an experiment or an ablation, or nil.
func ByID(id string) *Experiment {
	for _, list := range [][]Experiment{Registry, Ablations} {
		for i := range list {
			if list[i].ID == id {
				return &list[i]
			}
		}
	}
	return nil
}
