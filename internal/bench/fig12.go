package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Fig12 reproduces Figure 12: latency distributions on Ethereum
// transactions under the paper's per-block-index storage model. Reads scan
// the block list for the transaction (the dominant cost, which equalizes
// the candidates); writes build the next block's index.
func Fig12(sc Scale) ([]*Table, error) {
	gen := workload.NewEthereum(workload.EthConfig{
		Blocks: sc.EthBlocks, TxPerBlock: sc.EthTxPerBlock, Seed: 11,
	})
	blocks := make([]workload.Block, sc.EthBlocks)
	for i := range blocks {
		blocks[i] = gen.BlockAt(i)
	}
	cands := CandidateSet(sc)

	read := &Table{
		ID:      "Figure 12(a)",
		Title:   "Ethereum read latency (µs): mean / p50 / p90 / p99",
		XLabel:  "Index",
		Columns: []string{"mean", "p50", "p90", "p99"},
		Note:    "reads scan the per-block index list from the newest block",
	}
	write := &Table{
		ID:      "Figure 12(b)",
		Title:   "Ethereum write latency per block build (µs/tx): mean / p50 / p90 / p99",
		XLabel:  "Index",
		Columns: []string{"mean", "p50", "p90", "p99"},
	}

	for _, cand := range cands {
		var chain []core.Index
		var writeSamples []time.Duration
		for _, b := range blocks {
			idx, err := newIndex(sc, cand)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			next, err := idx.PutBatch(b.Txs)
			if err != nil {
				return nil, err
			}
			writeSamples = append(writeSamples, time.Since(start)/time.Duration(len(b.Txs)))
			chain = append(chain, next)
		}

		rng := rand.New(rand.NewSource(12))
		reads := sc.Ops / 20
		if reads < 50 {
			reads = 50
		}
		var readSamples []time.Duration
		for i := 0; i < reads; i++ {
			bi := rng.Intn(len(blocks))
			tx := blocks[bi].Txs[rng.Intn(len(blocks[bi].Txs))]
			start := time.Now()
			found := false
			for j := len(chain) - 1; j >= 0; j-- {
				_, ok, err := chain[j].Get(tx.Key)
				if err != nil {
					return nil, err
				}
				if ok {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("fig12 %s: tx missing", cand.Name)
			}
			readSamples = append(readSamples, time.Since(start))
		}
		read.AddRow(cand.Name,
			us(Mean(readSamples)), us(Percentile(readSamples, 0.5)),
			us(Percentile(readSamples, 0.9)), us(Percentile(readSamples, 0.99)))
		write.AddRow(cand.Name,
			us(Mean(writeSamples)), us(Percentile(writeSamples, 0.5)),
			us(Percentile(writeSamples, 0.9)), us(Percentile(writeSamples, 0.99)))
		ReleaseVersions(chain) // one store per block
	}
	return []*Table{read, write}, nil
}
