package bench

import (
	"fmt"

	"repro/internal/mbt"
	"repro/internal/store"
	"repro/internal/workload"
)

// Fig13 reproduces Figure 13: the MBT lookup latency breakdown. As the
// record count grows with a fixed bucket count, the tree-traversal and
// node-loading phase stays constant while the bucket decode-and-scan phase
// grows linearly — the root cause of MBT's read degradation in Figure 6.
// The nodes/lookup and entries/lookup columns count the same two phases
// deterministically: nodes loaded root to bucket, and bucket entries
// decoded.
func Fig13(sc Scale) ([]*Table, error) {
	t := &Table{
		ID:      "Figure 13",
		Title:   "MBT lookup breakdown (µs per op)",
		XLabel:  "#Records",
		Columns: []string{"Load time", "Scan time", "nodes/lookup", "entries/lookup"},
		Note:    fmt.Sprintf("%d buckets, fanout 32", sc.MBTBuckets),
	}
	counts := sc.YCSBCounts
	for _, n := range counts {
		y := workload.NewYCSB(workload.YCSBConfig{Records: n, Seed: 13})
		s, err := sc.NewStore()
		if err != nil {
			return nil, err
		}
		tree, err := Classes(sc)[1].New(s) // MBT
		if err != nil {
			store.Release(s)
			return nil, err
		}
		idx, err := LoadBatched(tree, y.Dataset(), sc.Batch)
		if err != nil {
			store.Release(s)
			return nil, err
		}
		m := idx.(*mbt.Tree)
		probes := sc.Ops / 4
		if probes < 200 {
			probes = 200
		}
		var load, scan float64
		var nodes, entries int
		z := workload.NewZipfian(uint64(n), 0, 13)
		for i := 0; i < probes; i++ {
			key := y.Key(int(z.Next()))
			_, ok, bd, err := m.GetBreakdown(key)
			if err != nil {
				store.Release(s)
				return nil, err
			}
			if !ok {
				store.Release(s)
				return nil, fmt.Errorf("fig13: key %q missing", key)
			}
			load += float64(bd.Load.Nanoseconds())
			scan += float64(bd.Scan.Nanoseconds())
			nodes += bd.Nodes
			entries += bd.Entries
		}
		t.AddRow(fmt.Sprint(n),
			f2(load/float64(probes)/1000),
			f2(scan/float64(probes)/1000),
			f2(float64(nodes)/float64(probes)),
			f1(float64(entries)/float64(probes)))
		store.Release(s)
	}
	return []*Table{t}, nil
}
