package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/forkbase"
	"repro/internal/hash"
	"repro/internal/mbt"
	"repro/internal/mpt"
	"repro/internal/mvmbt"
	"repro/internal/postree"
	"repro/internal/store"
	"repro/internal/version"
	"repro/internal/workload"
)

// clientCacheBytes bounds the client-side node cache in the system
// experiments (§5.6.1: "Forkbase caches the nodes at clients").
const clientCacheBytes = 64 << 20

// clientCacheFor resolves the scale's client-cache selection: 0 keeps the
// paper default, negative disables caching.
func clientCacheFor(sc Scale) int64 {
	switch {
	case sc.ClientCacheBytes > 0:
		return sc.ClientCacheBytes
	case sc.ClientCacheBytes < 0:
		return 0
	default:
		return clientCacheBytes
	}
}

// servedCandidate pairs an index constructor with the Loader a client needs
// to interpret its nodes.
type servedCandidate struct {
	name   string
	new    func() (core.Index, error)
	loader forkbase.Loader
}

// serveSeeded commits idx as the head of a branch in a repo over idx's
// store, registering l as the checkout loader for idx's class, and returns
// a servlet serving that branch: the repo-backed write path every system
// experiment measures.
func serveSeeded(idx core.Index, l forkbase.Loader) (*forkbase.Servlet, error) {
	const branch = "served"
	repo := version.NewRepo(idx.Store())
	repo.RegisterLoader(idx.Name(), func(s store.Store, root hash.Hash, height int) (core.Index, error) {
		return l(s, root, height), nil
	})
	if _, err := repo.Commit(branch, idx, "seed"); err != nil {
		return nil, err
	}
	return forkbase.NewServletRepo(repo, branch)
}

func servedCandidates(sc Scale) []servedCandidate {
	posCfg := postree.ConfigForNodeSize(sc.NodeSize)
	mbtCfg := mbt.Config{Capacity: sc.MBTBuckets, Fanout: 32}
	mvCfg := mvmbt.ConfigForNodeSize(sc.NodeSize)
	return []servedCandidate{
		{
			name: "POS-Tree",
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
			name: "MBT",
			new: func() (core.Index, error) {
				s, err := sc.NewStore()
				if err != nil {
					return nil, err
				}
				return mbt.New(s, mbtCfg)
			},
			loader: func(s store.Store, root hash.Hash, _ int) core.Index {
				t, err := mbt.Load(s, mbtCfg, root)
				if err != nil {
					panic(err) // Load only validates config; cfg is fixed
				}
				return t
			},
		},
		{
			name: "MPT",
			new: func() (core.Index, error) {
				s, err := sc.NewStore()
				if err != nil {
					return nil, err
				}
				return mpt.New(s), nil
			},
			loader: func(s store.Store, root hash.Hash, _ int) core.Index {
				return mpt.Load(s, root)
			},
		},
		{
			name: "MVMB+-Tree",
			new: func() (core.Index, error) {
				s, err := sc.NewStore()
				if err != nil {
					return nil, err
				}
				return mvmbt.New(s, mvCfg), nil
			},
			loader: func(s store.Store, root hash.Hash, height int) core.Index {
				return mvmbt.Load(s, mvCfg, root, height)
			},
		},
	}
}

// Fig21 reproduces Figure 21: system-level throughput with the indexes
// integrated into the Forkbase-style engine — a single servlet and a single
// client over TCP, client-side node caching for reads, server-side writes.
func Fig21(sc Scale) ([]*Table, error) {
	cands := servedCandidates(sc)
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.name
	}
	read := &Table{
		ID:      "Figure 21(a)",
		Title:   "Forkbase-integrated read throughput (Kops/s)",
		XLabel:  "#Records",
		Columns: names,
	}
	write := &Table{
		ID:      "Figure 21(b)",
		Title:   "Forkbase-integrated write throughput (Kops/s)",
		XLabel:  "#Records",
		Columns: names,
	}
	for _, n := range sc.YCSBCounts {
		readCells := make([]string, 0, len(cands))
		writeCells := make([]string, 0, len(cands))
		for _, cand := range cands {
			rt, wt, err := fig21Cell(sc, cand, n)
			if err != nil {
				return nil, fmt.Errorf("fig21 %s n=%d: %w", cand.name, n, err)
			}
			readCells = append(readCells, f1(rt/1000))
			writeCells = append(writeCells, f1(wt/1000))
		}
		read.AddRow(fmt.Sprint(n), readCells...)
		write.AddRow(fmt.Sprint(n), writeCells...)
	}
	return []*Table{read, write}, nil
}

func fig21Cell(sc Scale, cand servedCandidate, n int) (readTput, writeTput float64, err error) {
	y := workload.NewYCSB(workload.YCSBConfig{Records: n, Seed: 21})
	idx, err := cand.new()
	if err != nil {
		return 0, 0, err
	}
	defer ReleaseIndex(idx) // runs after srv.Close: handlers are done
	idx, err = LoadBatched(idx, y.Dataset(), sc.Batch)
	if err != nil {
		return 0, 0, err
	}
	srv, err := serveSeeded(idx, cand.loader)
	if err != nil {
		return 0, 0, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()

	cli, err := forkbase.Dial(addr, cand.loader, clientCacheFor(sc))
	if err != nil {
		return 0, 0, err
	}
	defer cli.Close()

	// Read workload through the caching client.
	readOps := sc.Ops / 2
	z := workload.NewZipfian(uint64(n), 0, 2121)
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

	// Write workload applied server-side in batches.
	writeOps := sc.Ops / 2
	batch := make([]core.Entry, 0, sc.Batch)
	start = time.Now()
	for i := 0; i < writeOps; i++ {
		id := int(z.Next())
		batch = append(batch, core.Entry{Key: y.Key(id), Value: y.Value(id, 5000+i)})
		if len(batch) >= sc.Batch {
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
