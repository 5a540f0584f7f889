package bench

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/version"
)

// IngestExp measures the write-optimized ingest front-end (internal/ingest)
// against the status-quo write path, for every index class.
//
// The first table is sustained point-write throughput: the direct baseline
// batches writes and commits every IngestCommitEvery of them — each commit
// paying the full root-to-leaf rebuild for its batch — while the buffered
// path appends each write to the WAL-backed memtable and lets auto-merges
// fold IngestMergeEvery-sized batches into the index. Both paths end fully
// merged (the buffered run's final Merge is inside its timing) and both ack
// durability at the same granularity, so the speedup column isolates what
// the memtable amortization buys.
//
// The second table shows what buffering costs readers: Get latency through
// the layered view while a merge is folding a full memtable into the index,
// against the same buffer idle. The overlay lookup is a binary search over
// the memtable snapshot, so the during-merge path should track the idle
// path rather than stalling behind the merge.
func IngestExp(sc Scale) ([]*Table, error) {
	writes := sc.IngestWrites
	if writes <= 0 {
		writes = 2000
	}
	commitEvery := sc.IngestCommitEvery
	if commitEvery <= 0 {
		commitEvery = 100
	}
	mergeEvery := sc.IngestMergeEvery
	if mergeEvery <= 0 {
		mergeEvery = 1000
	}

	thrTable := &Table{
		ID:      "Ingest(a)",
		Title:   fmt.Sprintf("sustained point-write throughput, %d writes (op/s)", writes),
		XLabel:  "index",
		Columns: []string{"Direct(op/s)", "Buffered(op/s)", "Speedup"},
		Note: fmt.Sprintf("direct commits every %d writes; buffered WAL memtable auto-merges every %d (extension)",
			commitEvery, mergeEvery),
	}
	latTable := &Table{
		ID:      "Ingest(b)",
		Title:   "Get latency through the layered view (µs)",
		XLabel:  "index",
		Columns: []string{"Idle p50", "Idle p99", "Merging p50", "Merging p99"},
		Note:    "Merging columns sample Gets while a full memtable folds into the index",
	}

	for _, cls := range Classes(sc) {
		direct, err := ingestDirectRate(sc, cls, writes, commitEvery)
		if err != nil {
			return nil, fmt.Errorf("ingest %s: direct: %w", cls.Name, err)
		}
		buffered, err := ingestBufferedRate(sc, cls, writes, commitEvery, mergeEvery)
		if err != nil {
			return nil, fmt.Errorf("ingest %s: buffered: %w", cls.Name, err)
		}
		thrTable.AddRow(cls.Name, f1(direct), f1(buffered), f2(buffered/direct)+"x")

		idle, merging, err := ingestReadLatency(sc, cls, mergeEvery)
		if err != nil {
			return nil, fmt.Errorf("ingest %s: latency: %w", cls.Name, err)
		}
		latTable.AddRow(cls.Name,
			us(Percentile(idle, 0.5)), us(Percentile(idle, 0.99)),
			us(Percentile(merging, 0.5)), us(Percentile(merging, 0.99)))
	}
	return []*Table{thrTable, latTable}, nil
}

// ingestWorkload builds the deterministic shuffled point-write stream both
// paths replay: uniformly random key order over a keyspace half the write
// count, so roughly half the writes are overwrites — the mix a sustained
// ingest sees.
func ingestWorkload(writes int) []core.Entry {
	rng := rand.New(rand.NewSource(83))
	keyspace := writes / 2
	if keyspace < 1 {
		keyspace = 1
	}
	out := make([]core.Entry, writes)
	for i := range out {
		id := rng.Intn(keyspace)
		out[i] = core.Entry{
			Key:   []byte(fmt.Sprintf("ingest-%08d", id)),
			Value: []byte(fmt.Sprintf("val-%08d-%08d-0123456789abcdef0123456789abcdef", id, i)),
		}
	}
	return out
}

// ingestDirectRate measures the baseline: accumulate point writes and
// commit every commitEvery of them straight into the index.
func ingestDirectRate(sc Scale, cls Class, writes, commitEvery int) (float64, error) {
	s, err := sc.NewStore()
	if err != nil {
		return 0, err
	}
	idx, err := cls.New(s)
	if err != nil {
		return 0, err
	}
	defer ReleaseIndex(idx)
	repo := version.NewRepo(s)
	RegisterLoaders(repo, sc)

	stream := ingestWorkload(writes)
	start := time.Now()
	batch := make([]core.Entry, 0, commitEvery)
	for i, e := range stream {
		batch = append(batch, e)
		if len(batch) >= commitEvery || i == len(stream)-1 {
			if idx, err = idx.PutBatch(batch); err != nil {
				return 0, err
			}
			if _, err := repo.Commit("main", idx, fmt.Sprintf("batch ending at %d", i)); err != nil {
				return 0, err
			}
			batch = batch[:0]
		}
	}
	return float64(writes) / time.Since(start).Seconds(), nil
}

// ingestBufferedRate measures the front-end: every write goes through
// Buffer.Put, the WAL group-commits at the baseline's ack granularity, and
// auto-merges fold the memtable in. The final merge is inside the timing so
// both paths end with everything in the index.
func ingestBufferedRate(sc Scale, cls Class, writes, ackEvery, mergeEvery int) (float64, error) {
	s, err := sc.NewStore()
	if err != nil {
		return 0, err
	}
	repo := version.NewRepo(s)
	RegisterLoaders(repo, sc)
	dir, err := os.MkdirTemp("", "siri-ingest-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	bu, err := ingest.Open(repo, ingest.Options{
		Dir: dir, Branch: "main", New: cls.New,
		AutoMerge: true, MaxEntries: mergeEvery,
	})
	if err != nil {
		return 0, err
	}
	defer bu.Close()

	stream := ingestWorkload(writes)
	start := time.Now()
	for i, e := range stream {
		if err := bu.Put(e.Key, e.Value); err != nil {
			return 0, err
		}
		if (i+1)%ackEvery == 0 {
			if err := bu.Flush(); err != nil {
				return 0, err
			}
		}
	}
	if err := bu.Flush(); err != nil {
		return 0, err
	}
	if _, _, err := bu.Merge(); err != nil {
		return 0, err
	}
	return float64(writes) / time.Since(start).Seconds(), nil
}

// ingestReadLatency samples Get latency through the layered view with the
// buffer idle (memtable merged) and again while a merge of a full memtable
// races the reads.
func ingestReadLatency(sc Scale, cls Class, mergeEvery int) (idle, merging []time.Duration, err error) {
	s, err := sc.NewStore()
	if err != nil {
		return nil, nil, err
	}
	repo := version.NewRepo(s)
	RegisterLoaders(repo, sc)
	dir, err := os.MkdirTemp("", "siri-ingest-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	bu, err := ingest.Open(repo, ingest.Options{Dir: dir, Branch: "main", New: cls.New})
	if err != nil {
		return nil, nil, err
	}
	defer bu.Close()

	// Base dataset, merged: the idle reads hit the index through the
	// (empty) overlay.
	base := ingestWorkload(mergeEvery)
	for _, e := range base {
		if err := bu.Put(e.Key, e.Value); err != nil {
			return nil, nil, err
		}
	}
	if _, _, err := bu.Merge(); err != nil {
		return nil, nil, err
	}

	keys := make([][]byte, len(base))
	for i, e := range base {
		keys[i] = e.Key
	}
	rng := rand.New(rand.NewSource(59))
	if idle, err = sampleGets(bu.Get, keys, rng, nil); err != nil {
		return nil, nil, err
	}

	// Refill the memtable and sample while the merge folds it in. A merge
	// that outpaces the sampler just yields fewer racing samples; keep at
	// least one so the percentiles are defined.
	for i, e := range ingestWorkload(mergeEvery) {
		e.Value = append(e.Value, byte('a'+i%26))
		if err := bu.Put(e.Key, e.Value); err != nil {
			return nil, nil, err
		}
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := bu.Merge()
		done <- err
	}()
	merging, err = sampleGets(bu.Get, keys, rng, func() bool {
		select {
		case err := <-done:
			done <- err
			return true
		default:
			return false
		}
	})
	if mergeErr := <-done; mergeErr != nil {
		return nil, nil, mergeErr
	}
	if err != nil {
		return nil, nil, err
	}
	if len(merging) == 0 {
		if merging, err = sampleGets(bu.Get, keys, rng, nil); err != nil {
			return nil, nil, err
		}
		merging = merging[:1]
	}
	return idle, merging, nil
}

// sampleGets times up to 400 Gets of keys drawn by rng, stopping early
// when stopWhen (if set) reports true. Every sampled key is resident, so a
// miss is an error, as is any Get error.
func sampleGets(get func([]byte) ([]byte, bool, error), keys [][]byte, rng *rand.Rand, stopWhen func() bool) ([]time.Duration, error) {
	const samples = 400
	var out []time.Duration
	for i := 0; i < samples; i++ {
		if stopWhen != nil && stopWhen() {
			break
		}
		k := keys[rng.Intn(len(keys))]
		t0 := time.Now()
		_, ok, err := get(k)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
		if !ok {
			return nil, fmt.Errorf("key %q missing", k)
		}
	}
	return out, nil
}
