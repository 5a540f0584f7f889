package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/ingest"
	"repro/internal/version"
)

// runIngestVerb handles `siribench ingest demo`: a self-contained walk
// through the WAL-backed ingest front-end against the selected store
// backend. It streams scale-sized point writes through an ingest.Buffer
// with auto-merges, closes the buffer mid-stream with unmerged writes
// buffered, reopens it to demonstrate WAL replay, finishes the stream,
// merges, and scrubs the repo end to end. (The `ingest` experiment, by
// contrast, measures throughput/latency; this verb shows the machinery.)
func runIngestVerb(w io.Writer, sc bench.Scale) error {
	sc, release := sc.WithStoreTracking()
	defer release()
	s, err := sc.NewStore()
	if err != nil {
		return err
	}
	repo := version.NewRepo(s)
	bench.RegisterLoaders(repo, sc)

	dir, err := os.MkdirTemp("", "siri-ingest-demo-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	writes := sc.IngestWrites
	if writes <= 0 {
		writes = 2000
	}
	mergeEvery := sc.IngestMergeEvery
	if mergeEvery <= 0 {
		mergeEvery = 1000
	}
	opts := ingest.Options{
		Dir: dir, Branch: "main",
		New:       bench.Classes(sc)[0].New, // POS-Tree
		AutoMerge: true, MaxEntries: mergeEvery,
	}
	bu, err := ingest.Open(repo, opts)
	if err != nil {
		return err
	}

	key := func(i int) []byte { return []byte(fmt.Sprintf("ingest-%08d", i)) }
	val := func(i, gen int) []byte { return []byte(fmt.Sprintf("val-%08d-gen%d", i, gen)) }

	// Phase 1: two thirds of the stream, group-committing periodically.
	cut := writes * 2 / 3
	for i := 0; i < cut; i++ {
		if err := bu.Put(key(i), val(i, 0)); err != nil {
			return err
		}
		if (i+1)%256 == 0 {
			if err := bu.Flush(); err != nil {
				return err
			}
		}
	}
	if err := bu.Flush(); err != nil {
		return err
	}
	st := bu.Stats()
	fmt.Fprintf(w, "ingested %d writes: %d auto-merges, %d buffered in memtable, %d WAL segment(s)\n",
		cut, st.Merges, st.MemEntries, st.WALSegments)

	// Simulate a restart with unmerged writes buffered: close (flushes the
	// WAL, merges nothing) and reopen (replays).
	unmerged := st.MemEntries
	if err := bu.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "closed with %d unmerged write(s) in the WAL\n", unmerged)
	bu, err = ingest.Open(repo, opts)
	if err != nil {
		return err
	}
	defer bu.Close()
	fmt.Fprintf(w, "reopened: replayed %d of %d WAL record(s) (%d torn segment(s) repaired), high-water mark %d\n",
		bu.Replay.Replayed, bu.Replay.Records, bu.Replay.TornSegments, bu.Stats().MergedSeq)
	if got := bu.Stats().MemEntries; got != unmerged {
		return fmt.Errorf("replay rebuilt %d memtable entries, expected %d", got, unmerged)
	}

	// Phase 2: the rest of the stream, then fold everything in.
	for i := cut; i < writes; i++ {
		if err := bu.Put(key(i), val(i, 0)); err != nil {
			return err
		}
	}
	if err := bu.Flush(); err != nil {
		return err
	}
	// The final merge may find an empty memtable when an auto-merge just
	// tripped; either way everything is folded in afterwards.
	if _, _, err := bu.Merge(); err != nil {
		return err
	}
	if left := bu.Stats().MemEntries; left != 0 {
		return fmt.Errorf("final merge left %d entries buffered", left)
	}
	st = bu.Stats()
	n, err := bu.Count()
	if err != nil {
		return err
	}
	log, err := repo.Log("main")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "finished %d writes: %d merge commit(s) on main, %d key(s) in the index\n",
		writes, len(log), n)

	rep, err := repo.Verify()
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("scrub found damage: %v", rep.Faults)
	}
	fmt.Fprintf(w, "scrub: %s\n", rep)
	return nil
}
