package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/version"
	"repro/internal/workload"
)

// runVersionVerb handles the `version log` and `version gc` subcommands: a
// self-contained demonstration of the version-management subsystem against
// the selected store backend. It builds a POS-Tree history of
// RetentionVersions committed versions (scale-sized), then either prints
// the commit log or runs a retention GC — on the disk backend with the
// on-disk footprint printed before and after compaction.
func runVersionVerb(w io.Writer, sc bench.Scale, verb string) error {
	switch verb {
	case "log", "gc", "verify":
	default:
		return fmt.Errorf("unknown version subcommand %q (want log, gc or verify)", verb)
	}
	sc, release := sc.WithStoreTracking()
	defer release()
	s, err := sc.NewStore()
	if err != nil {
		return err
	}
	repo := version.NewRepo(s)
	bench.RegisterLoaders(repo, sc)

	// Build the demo history: an initial load plus K−1 update batches,
	// one commit per version.
	y := workload.NewYCSB(workload.YCSBConfig{Records: sc.YCSBCounts[0], Seed: 17})
	idx, err := bench.Classes(sc)[0].New(s) // POS-Tree
	if err != nil {
		return err
	}
	idx, err = bench.LoadBatched(idx, y.Dataset(), sc.Batch)
	if err != nil {
		return err
	}
	if _, err := repo.Commit("main", idx, "initial load"); err != nil {
		return err
	}
	k := sc.RetentionVersions
	if k < 2 {
		k = 2
	}
	for v := 1; v < k; v++ {
		z := workload.NewZipfian(uint64(sc.YCSBCounts[0]), 0.5, int64(v)*97)
		updates := make([]core.Entry, sc.RetentionUpdates)
		for j := range updates {
			id := int(z.Next())
			updates[j] = core.Entry{Key: y.Key(id), Value: y.Value(id, v)}
		}
		if idx, err = idx.PutBatch(updates); err != nil {
			return err
		}
		if _, err := repo.Commit("main", idx, fmt.Sprintf("version %d", v)); err != nil {
			return err
		}
	}

	log, err := repo.Log("main")
	if err != nil {
		return err
	}
	printLog := func() {
		fmt.Fprintf(w, "branch main, %d commit(s), newest first:\n", len(log))
		for _, c := range log {
			parent := "(root)"
			if len(c.Parents) > 0 {
				parent = fmt.Sprintf("%x", c.Parents[0][:6])
			}
			fmt.Fprintf(w, "  %x  parent %-12s  %-12s  %s  %s\n",
				c.ID[:6], parent, c.Class, c.When().Format(time.TimeOnly), c.Message)
		}
	}
	printLog()
	if verb == "log" {
		return nil
	}
	if verb == "verify" {
		// Scrub after a retention GC, so the walk also crosses the shallow
		// boundary the pass leaves — the state a verify runs against in
		// practice.
		keep := sc.RetentionKeep
		if keep < 1 {
			keep = 1
		}
		if _, err := repo.GCRetainRecent(keep); err != nil {
			return err
		}
		start := time.Now()
		rep, err := repo.Verify()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nverify: %s in %v\n", rep, time.Since(start).Round(time.Microsecond))
		for _, f := range rep.Faults {
			fmt.Fprintf(w, "  %s\n", f)
		}
		if !rep.OK() {
			return fmt.Errorf("verify found %d damaged node(s)", len(rep.Faults))
		}
		return nil
	}

	keep := sc.RetentionKeep
	if keep < 1 {
		keep = 1
	}
	if keep > len(log) {
		keep = len(log)
	}
	retained := log[:keep]
	before := s.Stats()
	diskBefore, hasDisk := store.DiskUsageOf(s)
	fmt.Fprintf(w, "\ngc: retaining newest %d of %d commits\n", keep, len(log))
	gst, err := repo.GC(retained...)
	if err != nil {
		return err
	}
	after := s.Stats()
	fmt.Fprintf(w, "  %s\n", gst)
	fmt.Fprintf(w, "  store unique bytes: %d → %d (reclaimed %d)\n",
		before.UniqueBytes, after.UniqueBytes, before.UniqueBytes-after.UniqueBytes)
	if hasDisk {
		if diskAfter, ok := store.DiskUsageOf(s); ok {
			fmt.Fprintf(w, "  on-disk segment bytes: %d → %d (compacted %d segment(s))\n",
				diskBefore, diskAfter, gst.Store.SegmentsCompacted)
		}
	}
	log, err = repo.Log("main")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nafter gc:\n")
	printLog()
	return nil
}
