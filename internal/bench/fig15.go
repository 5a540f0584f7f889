package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Fig15 reproduces Figure 15: storage usage and node counts on the Wiki
// dataset as versions accumulate. Checkpoints sample the union footprint of
// all versions so far.
func Fig15(sc Scale) ([]*Table, error) {
	cands := CandidateSet(sc)
	storage := &Table{
		ID:      "Figure 15(a)",
		Title:   "Wiki storage usage (MB)",
		XLabel:  "#Versions",
		Columns: classNames(cands),
	}
	nodes := &Table{
		ID:      "Figure 15(b)",
		Title:   "Wiki #nodes (x1000)",
		XLabel:  "#Versions",
		Columns: classNames(cands),
	}
	w := workload.NewWiki(workload.WikiConfig{
		Pages: sc.WikiPages, Versions: sc.WikiVersions,
		UpdatesPerVersion: sc.WikiUpdates, Seed: 7,
	})
	// Checkpoints at 1/3, 1/2, 2/3, 5/6 and all versions (paper: 100–300).
	v := sc.WikiVersions
	checkpoints := []int{v / 3, v / 2, 2 * v / 3, 5 * v / 6, v}

	type cells struct{ storage, nodes []string }
	perCand := make([]cells, len(cands))
	for ci, cand := range cands {
		idx, err := newIndex(sc, cand)
		if err != nil {
			return nil, err
		}
		head, err := LoadBatched(idx, w.Dataset(), sc.Batch)
		if err != nil {
			return nil, err
		}
		versions := []core.Index{head}
		cpi := 0
		for ver := 1; ver <= v; ver++ {
			head, err = head.PutBatch(w.VersionUpdates(ver))
			if err != nil {
				return nil, err
			}
			versions = append(versions, head)
			if cpi < len(checkpoints) && ver == checkpoints[cpi] {
				bytes, count, err := storageOf(versions)
				if err != nil {
					return nil, fmt.Errorf("fig15 %s: %w", cand.Name, err)
				}
				perCand[ci].storage = append(perCand[ci].storage, f2(MB(bytes)))
				perCand[ci].nodes = append(perCand[ci].nodes, f1(float64(count)/1000))
				cpi++
			}
		}
		ReleaseIndex(head)
	}
	for i, cp := range checkpoints {
		storageCells := make([]string, len(cands))
		nodeCells := make([]string, len(cands))
		for ci := range cands {
			storageCells[ci] = perCand[ci].storage[i]
			nodeCells[ci] = perCand[ci].nodes[i]
		}
		storage.AddRow(fmt.Sprint(cp), storageCells...)
		nodes.AddRow(fmt.Sprint(cp), nodeCells...)
	}
	return []*Table{storage, nodes}, nil
}
