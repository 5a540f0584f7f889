package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/forkbase"
	"repro/internal/hash"
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

// servedLoader adapts a class's version.Loader to the forkbase.Loader a
// client needs to interpret its nodes. The table's loaders fail only on a
// config they validate at construction, so an error here is a bug.
func servedLoader(l version.Loader) forkbase.Loader {
	return func(s store.Store, root hash.Hash, height int) core.Index {
		idx, err := l(s, root, height)
		if err != nil {
			panic(err)
		}
		return idx
	}
}

// serveSeeded commits idx as the head of a branch in a repo over idx's
// store, registering l as the checkout loader for idx's class, and returns
// a servlet serving that branch: the repo-backed write path every system
// experiment measures.
func serveSeeded(idx core.Index, l version.Loader) (*forkbase.Servlet, error) {
	const branch = "served"
	repo := version.NewRepo(idx.Store())
	repo.RegisterLoader(idx.Name(), l)
	if _, err := repo.Commit(branch, idx, "seed"); err != nil {
		return nil, err
	}
	return forkbase.NewServletRepo(repo, branch)
}

// Fig21 reproduces Figure 21: system-level throughput with the indexes
// integrated into the Forkbase-style engine — a single servlet and a single
// client over TCP, client-side node caching for reads, server-side writes.
func Fig21(sc Scale) ([]*Table, error) {
	cands := CandidateSet(sc)
	names := classNames(cands)
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
	return servedTables(sc, "fig21", cands, read, write, func(c Class, n int) (float64, float64, error) {
		return servedCell(sc, c, n, 21, 2121, sc.Ops/2, sc.Batch, 5000)
	})
}

// servedTables fills read and write with one row per YCSB count and one
// served throughput cell (in Kops/s) per class.
func servedTables(sc Scale, exp string, classes []Class, read, write *Table,
	cell func(c Class, n int) (readTput, writeTput float64, err error)) ([]*Table, error) {
	for _, n := range sc.YCSBCounts {
		readCells := make([]string, 0, len(classes))
		writeCells := make([]string, 0, len(classes))
		for _, c := range classes {
			rt, wt, err := cell(c, n)
			if err != nil {
				return nil, fmt.Errorf("%s %s n=%d: %w", exp, c.Name, n, err)
			}
			readCells = append(readCells, f1(rt/1000))
			writeCells = append(writeCells, f1(wt/1000))
		}
		read.AddRow(fmt.Sprint(n), readCells...)
		write.AddRow(fmt.Sprint(n), writeCells...)
	}
	return []*Table{read, write}, nil
}

// servedCell loads n YCSB records (workload seed ycsbSeed) into a fresh
// index of class c, serves it, and measures through one caching client:
// ops zipfian Gets (generator seed zipfSeed), then ops zipfian writes
// applied server-side in batches of writeBatch, their values drawn from
// generation gen onward.
func servedCell(sc Scale, c Class, n int, ycsbSeed, zipfSeed int64, ops, writeBatch, gen int) (readTput, writeTput float64, err error) {
	y := workload.NewYCSB(workload.YCSBConfig{Records: n, Seed: ycsbSeed})
	idx, err := newIndex(sc, c)
	if err != nil {
		return 0, 0, err
	}
	defer ReleaseIndex(idx) // runs after srv.Close: handlers are done
	idx, err = LoadBatched(idx, y.Dataset(), sc.Batch)
	if err != nil {
		return 0, 0, err
	}
	srv, err := serveSeeded(idx, c.Load)
	if err != nil {
		return 0, 0, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()

	cli, err := forkbase.Dial(addr, servedLoader(c.Load), clientCacheFor(sc))
	if err != nil {
		return 0, 0, err
	}
	defer cli.Close()

	// Read workload through the caching client.
	z := workload.NewZipfian(uint64(n), 0, zipfSeed)
	start := time.Now()
	for i := 0; i < ops; i++ {
		key := y.Key(int(z.Next()))
		if _, ok, err := cli.Get(key); err != nil {
			return 0, 0, err
		} else if !ok {
			return 0, 0, fmt.Errorf("key %q missing", key)
		}
	}
	readTput = float64(ops) / time.Since(start).Seconds()

	// Write workload applied server-side in batches.
	batch := make([]core.Entry, 0, writeBatch)
	start = time.Now()
	for i := 0; i < ops; i++ {
		id := int(z.Next())
		batch = append(batch, core.Entry{Key: y.Key(id), Value: y.Value(id, gen+i)})
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
	writeTput = float64(ops) / time.Since(start).Seconds()
	return readTput, writeTput, nil
}
