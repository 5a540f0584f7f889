package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// collabRun executes the diverse-group collaboration scenario of §5.4.2:
// `parties` users each initialize the same dataset, then run overlapping
// workloads in batches. It returns every version of every party's index.
func collabRun(cand Class, sc Scale, parties int, overlap float64, batch int) ([]core.Index, error) {
	y := workload.NewYCSB(workload.YCSBConfig{Records: sc.CollabInit, Seed: 17})
	initData := y.Dataset()
	partyOps := workload.OverlapWorkload(y, parties, sc.CollabOps, overlap, 1717)

	var versions []core.Index
	for p := 0; p < parties; p++ {
		idx, err := newIndex(sc, cand)
		if err != nil {
			return nil, err
		}
		head, err := LoadBatched(idx, initData, batch)
		if err != nil {
			return nil, err
		}
		versions = append(versions, head)
		more, err := versionedLoad(head, partyOps[p], batch)
		if err != nil {
			return nil, err
		}
		versions = append(versions, more...)
	}
	return versions, nil
}

// Fig17 reproduces Figure 17: storage, node count, deduplication ratio and
// node sharing ratio as the cross-party overlap ratio varies.
func Fig17(sc Scale) ([]*Table, error) {
	return collabTables(sc, "Figure 17", "Overlap Ratio (%)",
		func(ratio int) (float64, int) { return float64(ratio) / 100, sc.Batch },
		[]int{10, 20, 40, 60, 80, 100})
}

// collabTables runs the collaboration scenario over a parameter sweep and
// reports the four §5.4.2 metrics.
func collabTables(sc Scale, figure, xlabel string, param func(x int) (overlap float64, batch int), xs []int) ([]*Table, error) {
	cands := CandidateSet(sc)
	storage := &Table{ID: figure + "(a)", Title: "storage usage (MB)", XLabel: xlabel, Columns: classNames(cands)}
	nodes := &Table{ID: figure + "(b)", Title: "#nodes (x1000)", XLabel: xlabel, Columns: classNames(cands)}
	dedup := &Table{ID: figure + "(c)", Title: "deduplication ratio", XLabel: xlabel, Columns: classNames(cands)}
	sharing := &Table{ID: figure + "(d)", Title: "node sharing ratio", XLabel: xlabel, Columns: classNames(cands)}
	note := fmt.Sprintf("%d parties, %d initial records, %d ops each",
		sc.CollabParties, sc.CollabInit, sc.CollabOps)
	storage.Note, nodes.Note, dedup.Note, sharing.Note = note, note, note, note

	for _, x := range xs {
		overlap, batch := param(x)
		storageCells := make([]string, 0, len(cands))
		nodeCells := make([]string, 0, len(cands))
		dedupCells := make([]string, 0, len(cands))
		sharingCells := make([]string, 0, len(cands))
		for _, cand := range cands {
			versions, err := collabRun(cand, sc, sc.CollabParties, overlap, batch)
			if err != nil {
				return nil, fmt.Errorf("%s %s x=%d: %w", figure, cand.Name, x, err)
			}
			st, err := core.AnalyzeVersions(versions...)
			ReleaseVersions(versions)
			if err != nil {
				return nil, err
			}
			storageCells = append(storageCells, f2(MB(st.UnionBytes)))
			nodeCells = append(nodeCells, f1(float64(st.UnionNodes)/1000))
			dedupCells = append(dedupCells, f3(st.DedupRatio()))
			sharingCells = append(sharingCells, f3(st.NodeSharingRatio()))
		}
		storage.AddRow(fmt.Sprint(x), storageCells...)
		nodes.AddRow(fmt.Sprint(x), nodeCells...)
		dedup.AddRow(fmt.Sprint(x), dedupCells...)
		sharing.AddRow(fmt.Sprint(x), sharingCells...)
	}
	return []*Table{storage, nodes, dedup, sharing}, nil
}
