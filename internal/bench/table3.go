package bench

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/mbt"
	"repro/internal/mpt"
	"repro/internal/postree"
	"repro/internal/store"
	"repro/internal/workload"
)

// Table3 reproduces Table 3: the effect of each structure's key parameter
// on its deduplication ratio under the collaboration workload — node size
// for POS-Tree, bucket count for MBT, and mean key length for MPT.
func Table3(sc Scale) ([]*Table, error) {
	pos, err := table3POS(sc)
	if err != nil {
		return nil, err
	}
	bkt, err := table3MBT(sc)
	if err != nil {
		return nil, err
	}
	keys, err := table3MPT(sc)
	if err != nil {
		return nil, err
	}
	return []*Table{pos, bkt, keys}, nil
}

// table3Dedup runs the collaboration scenario for one candidate and returns
// its deduplication ratio.
func table3Dedup(cand Class, sc Scale) (float64, error) {
	versions, err := collabRun(cand, sc, sc.CollabParties, 0.5, sc.Batch)
	if err != nil {
		return 0, err
	}
	defer ReleaseVersions(versions)
	st, err := core.AnalyzeVersions(versions...)
	if err != nil {
		return 0, err
	}
	return st.DedupRatio(), nil
}

func table3POS(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "Table 3 (POS-Tree)",
		Title:   "deduplication ratio vs node size",
		XLabel:  "Node Size",
		Columns: []string{"η(POS-Tree)"},
	}
	for _, size := range []int{512, 1024, 2048, 4096} {
		eta, err := table3Dedup(posTreeClass("POS-Tree", postree.ConfigForNodeSize(size)), sc)
		if err != nil {
			return nil, err
		}
		t.AddRow(strconv.Itoa(size), f3(eta))
	}
	return t, nil
}

func table3MBT(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "Table 3 (MBT)",
		Title:   "deduplication ratio vs #buckets",
		XLabel:  "#Buckets",
		Columns: []string{"η(MBT)"},
	}
	// Bucket counts scale around the configured default (paper: 4k–10k).
	counts := []int{sc.MBTBuckets, sc.MBTBuckets * 3 / 2, sc.MBTBuckets * 2, sc.MBTBuckets * 5 / 2}
	for _, b := range counts {
		cfg := mbt.Config{Capacity: b, Fanout: 32}
		cand := Class{Name: "MBT", New: func(s store.Store) (core.Index, error) { return mbt.New(s, cfg) }}
		eta, err := table3Dedup(cand, sc)
		if err != nil {
			return nil, err
		}
		t.AddRow(strconv.Itoa(b), f3(eta))
	}
	return t, nil
}

// table3MPT sweeps the minimum key length, which shifts the mean key length
// the way the paper's datasets do.
func table3MPT(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "Table 3 (MPT)",
		Title:   "deduplication ratio vs mean key length",
		XLabel:  "Mean keylen",
		Columns: []string{"η(MPT)"},
	}
	for _, minLen := range []int{5, 11, 13, 15} {
		minLen := minLen
		// Longer minimum lengths raise the dataset's mean key length.
		y := workload.NewYCSB(workload.YCSBConfig{Records: sc.CollabInit, Seed: 17})
		pad := func(key []byte) []byte {
			for len(key) < minLen {
				key = append(key, byte('A'+len(key)%26))
			}
			return key
		}
		meanLen := 0
		initData := y.Dataset()
		for i := range initData {
			initData[i].Key = pad(initData[i].Key)
			meanLen += len(initData[i].Key)
		}
		meanLen /= len(initData)
		partyOps := workload.OverlapWorkload(y, sc.CollabParties, sc.CollabOps, 0.5, 1717)
		var versions []core.Index
		for p := 0; p < sc.CollabParties; p++ {
			ops := partyOps[p]
			for i := range ops {
				ops[i].Key = pad(ops[i].Key)
			}
			s, err := sc.NewStore()
			if err != nil {
				return nil, err
			}
			var idx core.Index = mpt.New(s)
			head, err := LoadBatched(idx, initData, sc.Batch)
			if err != nil {
				return nil, err
			}
			versions = append(versions, head)
			more, err := versionedLoad(head, ops, sc.Batch)
			if err != nil {
				return nil, err
			}
			versions = append(versions, more...)
		}
		st, err := core.AnalyzeVersions(versions...)
		ReleaseVersions(versions)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f", float64(meanLen)), f3(st.DedupRatio()))
	}
	return t, nil
}
