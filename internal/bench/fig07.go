package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Fig07 reproduces Figure 7: throughput on the two real-world-shaped
// datasets. (a) Wiki: the corpus is loaded version by version, then uniform
// read and write workloads run against the head. (b) Ethereum: one index
// per block appended to a global block list; writes build block indexes,
// reads scan the block list for the transaction (§5.3.1).
func Fig07(sc Scale) ([]*Table, error) {
	wiki, err := fig07Wiki(sc)
	if err != nil {
		return nil, err
	}
	eth, err := fig07Eth(sc)
	if err != nil {
		return nil, err
	}
	return []*Table{wiki, eth}, nil
}

func fig07Wiki(sc Scale) (*Table, error) {
	w := workload.NewWiki(workload.WikiConfig{
		Pages: sc.WikiPages, Versions: sc.WikiVersions,
		UpdatesPerVersion: sc.WikiUpdates, Seed: 7,
	})
	cands := CandidateSet(sc)
	t := &Table{
		ID:      "Figure 7(a)",
		Title:   "Wiki throughput (Kops/s)",
		XLabel:  "Workload",
		Columns: classNames(cands),
		Note:    fmt.Sprintf("%d pages, %d versions", sc.WikiPages, sc.WikiVersions),
	}
	readCells := make([]string, 0, len(cands))
	writeCells := make([]string, 0, len(cands))
	for _, cand := range cands {
		idx, err := newIndex(sc, cand)
		if err != nil {
			return nil, err
		}
		idx, err = LoadBatched(idx, w.Dataset(), sc.Batch)
		if err != nil {
			return nil, err
		}
		for v := 1; v < sc.WikiVersions; v++ {
			idx, err = idx.PutBatch(w.VersionUpdates(v))
			if err != nil {
				return nil, err
			}
		}
		readOps, writeOps := wikiOps(w, sc.WikiPages, sc.Ops)
		rt, _, err := Throughput(idx, readOps, WriteBatchFor(cand, sc.Batch))
		if err != nil {
			return nil, err
		}
		wt, _, err := Throughput(idx, writeOps, WriteBatchFor(cand, sc.Batch))
		if err != nil {
			return nil, err
		}
		readCells = append(readCells, f1(rt/1000))
		writeCells = append(writeCells, f1(wt/1000))
		ReleaseIndex(idx)
	}
	t.AddRow("Read", readCells...)
	t.AddRow("Write", writeCells...)
	return t, nil
}

// wikiOps builds uniform read and write streams over the page key space.
func wikiOps(w *workload.Wiki, pages, n int) (reads, writes []workloadOp) {
	rng := rand.New(rand.NewSource(99))
	reads = make([]workloadOp, n)
	writes = make([]workloadOp, n)
	for i := range reads {
		p := rng.Intn(pages)
		reads[i] = workloadOp{Entry: core.Entry{Key: w.Key(p)}}
		writes[i] = workloadOp{Write: true, Entry: core.Entry{
			Key: w.Key(p), Value: w.Value(p, 1_000+i),
		}}
	}
	return reads, writes
}

// blockChain mimics the paper's Ethereum setup: a linked list of per-block
// index roots, scanned from the newest block on reads.
type blockChain struct {
	versions []core.Index
}

func fig07Eth(sc Scale) (*Table, error) {
	gen := workload.NewEthereum(workload.EthConfig{
		Blocks: sc.EthBlocks, TxPerBlock: sc.EthTxPerBlock, Seed: 11,
	})
	cands := CandidateSet(sc)
	t := &Table{
		ID:      "Figure 7(b)",
		Title:   "Ethereum transaction throughput (Kops/s)",
		XLabel:  "Workload",
		Columns: classNames(cands),
		Note:    fmt.Sprintf("%d blocks, ~%d tx/block, per-block indexes", sc.EthBlocks, sc.EthTxPerBlock),
	}
	readCells := make([]string, 0, len(cands))
	writeCells := make([]string, 0, len(cands))
	for _, cand := range cands {
		chain := &blockChain{}
		blocks := make([]workload.Block, sc.EthBlocks)
		for i := range blocks {
			blocks[i] = gen.BlockAt(i)
		}
		// Write workload: build one index per block (batch load from
		// scratch, the paper's bottom-up-friendly path).
		txTotal := 0
		start := time.Now()
		for _, b := range blocks {
			idx, err := newIndex(sc, cand)
			if err != nil {
				return nil, err
			}
			idx, err = idx.PutBatch(b.Txs)
			if err != nil {
				return nil, err
			}
			chain.versions = append(chain.versions, idx)
			txTotal += len(b.Txs)
		}
		writeTput := float64(txTotal) / time.Since(start).Seconds()

		// Read workload: random (block, tx), scan the chain from the
		// newest block until the transaction is found.
		rng := rand.New(rand.NewSource(3))
		reads := sc.Ops / 10 // chain scans are O(blocks); keep bounded
		if reads < 100 {
			reads = 100
		}
		start = time.Now()
		for i := 0; i < reads; i++ {
			b := rng.Intn(len(blocks))
			tx := blocks[b].Txs[rng.Intn(len(blocks[b].Txs))]
			found := false
			for j := len(chain.versions) - 1; j >= 0; j-- {
				if _, ok, err := chain.versions[j].Get(tx.Key); err != nil {
					return nil, err
				} else if ok {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("fig7b: tx not found in chain")
			}
		}
		readTput := float64(reads) / time.Since(start).Seconds()
		readCells = append(readCells, f2(readTput/1000))
		writeCells = append(writeCells, f2(writeTput/1000))
		ReleaseVersions(chain.versions) // one store per block
	}
	t.AddRow("Read", readCells...)
	t.AddRow("Write", writeCells...)
	return t, nil
}
