package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/version"
	"repro/internal/workload"
)

// GCPause quantifies the concurrent-GC pause story: the same read and
// commit workload runs twice over a POS-Tree version history — once with no
// collector (the baseline) and once with back-to-back GCRetainRecent passes
// racing it — and the experiment reports the foreground latency
// distributions side by side. Before the concurrent pass existed, a GC held
// the repository lock for its whole mark+sweep, so every read in flight
// stalled for a full pass; with the write barrier and reader pins the
// expected penalty is bounded lock-hold windows (snapshot, log prune,
// hooks) plus store-level sweep contention.
//
// The first table is the pause evidence: read and commit latency
// percentiles for both phases. The second reports the collector side: how
// many passes ran during the measured window, how long a pass takes, how
// much it swept, and how many commits lost the flush-before-mark race
// (ErrCommitRaced — the writer retries those).
func GCPause(sc Scale) ([]*Table, error) {
	records := sc.YCSBCounts[0]
	keep := sc.RetentionKeep
	if keep < 1 {
		keep = 1
	}

	cand := Classes(sc)[0] // POS-Tree, the flagship write path
	idx, err := newIndex(sc, cand)
	if err != nil {
		return nil, fmt.Errorf("gcpause: %w", err)
	}
	y := workload.NewYCSB(workload.YCSBConfig{Records: records, Seed: 17})
	idx, err = LoadBatched(idx, y.Dataset(), sc.Batch)
	if err != nil {
		ReleaseIndex(idx)
		return nil, fmt.Errorf("gcpause: load: %w", err)
	}
	repo := version.NewRepo(idx.Store())
	RegisterLoaders(repo, sc)
	if _, err := repo.Commit("main", idx, "initial load"); err != nil {
		ReleaseIndex(idx)
		return nil, fmt.Errorf("gcpause: %w", err)
	}
	// Seed a history deeper than the retention window so the first pass has
	// real work.
	cur := idx
	for v := 1; v < sc.RetentionVersions; v++ {
		if cur, err = commitUpdateVersion(repo, cur, y, records, sc.RetentionUpdates, v); err != nil {
			ReleaseIndex(idx)
			return nil, fmt.Errorf("gcpause: seed v%d: %w", v, err)
		}
	}

	idle, err := gcpausePhase(repo, y, records, sc, keep, false)
	if err != nil {
		ReleaseIndex(idx)
		return nil, fmt.Errorf("gcpause: idle phase: %w", err)
	}
	gc, err := gcpausePhase(repo, y, records, sc, keep, true)
	if err != nil {
		ReleaseIndex(idx)
		return nil, fmt.Errorf("gcpause: gc phase: %w", err)
	}

	ratio := 0.0
	if p := Percentile(idle.reads, 0.99); p > 0 {
		ratio = float64(Percentile(gc.reads, 0.99)) / float64(p)
	}
	latTable := &Table{
		ID:      "GCPause(a)",
		Title:   "foreground latency with and without a concurrent GC",
		XLabel:  "workload / phase",
		Columns: []string{"p50(µs)", "p95(µs)", "p99(µs)", "mean(µs)"},
		Note: fmt.Sprintf("POS-Tree, %d records, %d reads/phase, churn %d updates/commit; p99 read ratio gc/idle = %s",
			records, len(idle.reads), sc.RetentionUpdates, f2(ratio)),
	}
	for _, row := range []struct {
		name    string
		samples []time.Duration
	}{
		{"read / no GC", idle.reads},
		{"read / during GC", gc.reads},
		{"commit / no GC", idle.commits},
		{"commit / during GC", gc.commits},
	} {
		latTable.AddRow(row.name,
			us(Percentile(row.samples, 0.50)), us(Percentile(row.samples, 0.95)),
			us(Percentile(row.samples, 0.99)), us(Mean(row.samples)))
	}

	gcTable := &Table{
		ID:      "GCPause(b)",
		Title:   "collector accounting over the measured window",
		XLabel:  "index",
		Columns: []string{"Passes", "MeanPass(ms)", "P99Pass(ms)", "SweptNodes", "RacedCommits"},
		Note:    fmt.Sprintf("GCRetainRecent(%d) back-to-back while the foreground ran", keep),
	}
	gcTable.AddRow(cand.Name,
		fmt.Sprint(len(gc.passes)),
		f2(float64(Mean(gc.passes))/float64(time.Millisecond)),
		f2(float64(Percentile(gc.passes, 0.99))/float64(time.Millisecond)),
		fmt.Sprint(gc.swept), fmt.Sprint(gc.raced))

	ReleaseIndex(idx)
	return []*Table{latTable, gcTable}, nil
}

// gcpauseResult is one phase's measurements.
type gcpauseResult struct {
	reads   []time.Duration
	commits []time.Duration
	passes  []time.Duration
	swept   int64
	raced   int
}

// gcpausePhase runs one measurement phase: the caller goroutine samples
// read latency on a pinned head view while a churn writer commits update
// versions; with withGC set, a collector goroutine additionally runs
// retention passes back to back. The churn writer runs in both phases so
// the only variable between them is the collector.
func gcpausePhase(repo *version.Repo, y *workload.YCSB, records int, sc Scale, keep int, withGC bool) (gcpauseResult, error) {
	var res gcpauseResult
	view, pin, err := repo.CheckoutBranchPinned("main")
	if err != nil {
		return res, err
	}
	defer pin.Release()

	var (
		stop     atomic.Bool
		passes   atomic.Int64
		commits  atomic.Int64
		firstErr atomic.Pointer[error]
		mu       sync.Mutex // guards res.commits / res.passes from the goroutines
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		if err != nil && firstErr.CompareAndSwap(nil, &err) {
			stop.Store(true)
		}
	}

	// Churn writer: keeps committing so the store always has fresh garbage
	// and the commit gate is exercised. ErrCommitRaced is the documented
	// retry path, counted, not fatal.
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := 1000
		for !stop.Load() {
			idx, err := repo.CheckoutBranch("main")
			if err != nil {
				fail(err)
				return
			}
			next, err := updateVersion(idx, y, records, sc.RetentionUpdates, gen)
			if err != nil {
				fail(err)
				return
			}
			start := time.Now()
			_, err = repo.Commit("main", next, fmt.Sprintf("churn %d", gen))
			d := time.Since(start)
			if errors.Is(err, version.ErrCommitRaced) {
				mu.Lock()
				res.raced++
				mu.Unlock()
				continue
			}
			if err != nil {
				fail(err)
				return
			}
			mu.Lock()
			res.commits = append(res.commits, d)
			mu.Unlock()
			commits.Add(1)
			gen++
		}
	}()

	if withGC {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				start := time.Now()
				st, err := repo.GCRetainRecent(keep)
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				res.passes = append(res.passes, time.Since(start))
				res.swept += st.Store.SweptNodes
				mu.Unlock()
				passes.Add(1)
			}
		}()
	}

	// Foreground reads on the pinned view. The phase ends when the read
	// sample budget is met, the commit row has a minimum sample count, and,
	// in the GC phase, at least one full pass completed during the window.
	const minCommits = 8
	rng := rand.New(rand.NewSource(23))
	res.reads = make([]time.Duration, 0, sc.Ops)
	for len(res.reads) < sc.Ops || commits.Load() < minCommits || (withGC && passes.Load() == 0) {
		if stop.Load() {
			break
		}
		k := y.Key(rng.Intn(records))
		start := time.Now()
		_, _, err := view.Get(k)
		d := time.Since(start)
		if err != nil {
			fail(err)
			break
		}
		if len(res.reads) < sc.Ops*2 { // cap memory if a pass takes long
			res.reads = append(res.reads, d)
		}
	}
	stop.Store(true)
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return res, *ep
	}
	return res, nil
}

// updateVersion applies one churn batch of updates to idx and returns the
// new version.
func updateVersion(idx core.Index, y *workload.YCSB, records, updates, gen int) (core.Index, error) {
	z := workload.NewZipfian(uint64(records), 0.5, int64(gen)*131)
	batch := make([]core.Entry, updates)
	for j := range batch {
		id := int(z.Next())
		batch[j] = core.Entry{Key: y.Key(id), Value: y.Value(id, gen)}
	}
	return idx.PutBatch(batch)
}

// commitUpdateVersion is updateVersion plus the commit, used to seed the
// history.
func commitUpdateVersion(repo *version.Repo, idx core.Index, y *workload.YCSB, records, updates, gen int) (core.Index, error) {
	next, err := updateVersion(idx, y, records, updates, gen)
	if err != nil {
		return nil, err
	}
	if _, err := repo.Commit("main", next, fmt.Sprintf("version %d", gen)); err != nil {
		return nil, err
	}
	return next, nil
}
