package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// versionedLoad loads a dataset in batches and returns every version the
// loading produced (one per batch), newest last.
func versionedLoad(idx core.Index, entries []core.Entry, batch int) ([]core.Index, error) {
	versions := []core.Index{}
	for start := 0; start < len(entries); start += batch {
		end := start + batch
		if end > len(entries) {
			end = len(entries)
		}
		next, err := idx.PutBatch(entries[start:end])
		if err != nil {
			return nil, err
		}
		idx = next
		versions = append(versions, idx)
	}
	return versions, nil
}

// storageOf returns the union page footprint (bytes, node count) of a set
// of versions: what a system persisting all of them must store.
func storageOf(versions []core.Index) (int64, int, error) {
	st, err := core.AnalyzeVersions(versions...)
	if err != nil {
		return 0, 0, err
	}
	return st.UnionBytes, st.UnionNodes, nil
}

// Fig14 reproduces Figure 14: storage usage and number of nodes for
// single-group access (no cross-party sharing) as the dataset grows. All
// versions created during the batched load plus an update pass are counted.
func Fig14(sc Scale) ([]*Table, error) {
	cands := CandidateSet(sc)
	storage := &Table{
		ID:      "Figure 14(a)",
		Title:   "storage usage (MB), single group",
		XLabel:  "#Records",
		Columns: classNames(cands),
	}
	nodes := &Table{
		ID:      "Figure 14(b)",
		Title:   "#nodes (x1000), single group",
		XLabel:  "#Records",
		Columns: classNames(cands),
	}
	for _, n := range sc.YCSBCounts {
		y := workload.NewYCSB(workload.YCSBConfig{Records: n, WriteRatio: 1, Seed: 14})
		storageCells := make([]string, 0, len(cands))
		nodeCells := make([]string, 0, len(cands))
		for _, cand := range cands {
			idx, err := newIndex(sc, cand)
			if err != nil {
				return nil, err
			}
			versions, err := versionedLoad(idx, y.Dataset(), sc.Batch)
			if err != nil {
				ReleaseIndex(idx)
				return nil, err
			}
			// One update pass over the loaded data.
			head := versions[len(versions)-1]
			var updates []core.Entry
			for _, op := range y.Ops(sc.Ops) {
				if op.Write {
					updates = append(updates, op.Entry)
				}
			}
			moreVersions, err := versionedLoad(head, updates, sc.Batch)
			if err != nil {
				ReleaseIndex(idx)
				return nil, err
			}
			versions = append(versions, moreVersions...)
			bytes, count, err := storageOf(versions)
			ReleaseIndex(idx)
			if err != nil {
				return nil, fmt.Errorf("fig14 %s: %w", cand.Name, err)
			}
			storageCells = append(storageCells, f2(MB(bytes)))
			nodeCells = append(nodeCells, f1(float64(count)/1000))
		}
		storage.AddRow(fmt.Sprint(n), storageCells...)
		nodes.AddRow(fmt.Sprint(n), nodeCells...)
	}
	return []*Table{storage, nodes}, nil
}
