package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Fig16 reproduces Figure 16: storage usage and node counts on Ethereum
// transaction data, one index instance per block over a shared store.
func Fig16(sc Scale) ([]*Table, error) {
	cands := CandidateSet(sc)
	storage := &Table{
		ID:      "Figure 16(a)",
		Title:   "Ethereum storage usage (MB)",
		XLabel:  "#Blocks",
		Columns: classNames(cands),
	}
	nodes := &Table{
		ID:      "Figure 16(b)",
		Title:   "Ethereum #nodes (x1000)",
		XLabel:  "#Blocks",
		Columns: classNames(cands),
	}
	gen := workload.NewEthereum(workload.EthConfig{
		Blocks: sc.EthBlocks, TxPerBlock: sc.EthTxPerBlock, Seed: 11,
	})
	b := sc.EthBlocks
	checkpoints := []int{b / 3, 2 * b / 3, b}

	type cells struct{ storage, nodes []string }
	perCand := make([]cells, len(cands))
	for ci, cand := range cands {
		var versions []core.Index
		cpi := 0
		for bi := 1; bi <= b; bi++ {
			idx, err := newIndex(sc, cand)
			if err != nil {
				return nil, err
			}
			next, err := idx.PutBatch(gen.BlockAt(bi - 1).Txs)
			if err != nil {
				return nil, err
			}
			versions = append(versions, next)
			if cpi < len(checkpoints) && bi == checkpoints[cpi] {
				bytes, count, err := storageOf(versions)
				if err != nil {
					return nil, fmt.Errorf("fig16 %s: %w", cand.Name, err)
				}
				perCand[ci].storage = append(perCand[ci].storage, f2(MB(bytes)))
				perCand[ci].nodes = append(perCand[ci].nodes, f1(float64(count)/1000))
				cpi++
			}
		}
		ReleaseVersions(versions) // one store per block
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
