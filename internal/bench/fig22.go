package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/forkbase"
	"repro/internal/hash"
	"repro/internal/postree"
	"repro/internal/prolly"
	"repro/internal/store"
	"repro/internal/workload"
)

// Fig22 reproduces Figure 22: Forkbase (POS-Tree) versus Noms (Prolly
// Tree) served through identical client/server plumbing. Both use 4KB
// nodes and a 67-byte window, Noms' defaults (§5.6.2); the difference under
// measurement is the internal-layer boundary detection — child-hash pattern
// matching versus re-rolling a window over serialized entries.
func Fig22(sc Scale) ([]*Table, error) {
	posCfg := postree.ConfigForNodeSize(4096)
	posCfg.Chunk.Window = 67
	proCfg := prolly.ConfigForNodeSize(4096)

	systems := []servedCandidate{
		{
			name: "Forkbase",
			new: func() (core.Index, error) {
				s, err := sc.NewStore()
				if err != nil {
					return nil, err
				}
				return postree.New(s, posCfg), nil
			},
			loader: func(s store.Store, root hash.Hash, height int) core.Index {
				return postree.Load(s, posCfg, root, height)
			},
		},
		{
			name: "Noms",
			new: func() (core.Index, error) {
				s, err := sc.NewStore()
				if err != nil {
					return nil, err
				}
				return prolly.New(s, proCfg), nil
			},
			loader: func(s store.Store, root hash.Hash, height int) core.Index {
				return prolly.Load(s, proCfg, root, height)
			},
		},
	}
	read := &Table{
		ID:      "Figure 22(a)",
		Title:   "Forkbase vs Noms read throughput (Kops/s)",
		XLabel:  "#Records",
		Columns: []string{"Forkbase", "Noms"},
		Note:    "4KB nodes, 67-byte window (Noms defaults)",
	}
	write := &Table{
		ID:      "Figure 22(b)",
		Title:   "Forkbase vs Noms write throughput (Kops/s)",
		XLabel:  "#Records",
		Columns: []string{"Forkbase", "Noms"},
	}
	for _, n := range sc.YCSBCounts {
		readCells := make([]string, 0, 2)
		writeCells := make([]string, 0, 2)
		for _, sys := range systems {
			rt, wt, err := fig22Cell(sc, sys, n)
			if err != nil {
				return nil, fmt.Errorf("fig22 %s n=%d: %w", sys.name, n, err)
			}
			readCells = append(readCells, f1(rt/1000))
			writeCells = append(writeCells, f1(wt/1000))
		}
		read.AddRow(fmt.Sprint(n), readCells...)
		write.AddRow(fmt.Sprint(n), writeCells...)
	}
	return []*Table{read, write}, nil
}

func fig22Cell(sc Scale, sys servedCandidate, n int) (readTput, writeTput float64, err error) {
	y := workload.NewYCSB(workload.YCSBConfig{Records: n, Seed: 22})
	idx, err := sys.new()
	if err != nil {
		return 0, 0, err
	}
	defer ReleaseIndex(idx) // runs after srv.Close: handlers are done
	idx, err = LoadBatched(idx, y.Dataset(), sc.Batch)
	if err != nil {
		return 0, 0, err
	}
	srv, err := serveSeeded(idx, sys.loader)
	if err != nil {
		return 0, 0, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()

	cli, err := forkbase.Dial(addr, sys.loader, clientCacheFor(sc))
	if err != nil {
		return 0, 0, err
	}
	defer cli.Close()

	// Paper protocol: initialize with n records, then measure 10K-record
	// read and write workloads (scaled to sc.Ops).
	readOps := sc.Ops
	z := workload.NewZipfian(uint64(n), 0, 2222)
	start := time.Now()
	for i := 0; i < readOps; i++ {
		key := y.Key(int(z.Next()))
		if _, ok, err := cli.Get(key); err != nil {
			return 0, 0, err
		} else if !ok {
			return 0, 0, fmt.Errorf("key %q missing", key)
		}
	}
	readTput = float64(readOps) / time.Since(start).Seconds()

	writeOps := sc.Ops
	// Writes land per small batch (Noms' API commits batches too); keep
	// batches modest so chunking work dominates over network framing.
	const writeBatch = 100
	batch := make([]core.Entry, 0, writeBatch)
	start = time.Now()
	for i := 0; i < writeOps; i++ {
		id := int(z.Next())
		batch = append(batch, core.Entry{Key: y.Key(id), Value: y.Value(id, 9000+i)})
		if len(batch) >= writeBatch {
			if err := cli.PutBatch(batch); err != nil {
				return 0, 0, err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := cli.PutBatch(batch); err != nil {
			return 0, 0, err
		}
	}
	writeTput = float64(writeOps) / time.Since(start).Seconds()
	return readTput, writeTput, nil
}
