package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/version"
	"repro/internal/workload"
)

// RetentionExp measures the versioning + GC extension end-to-end: for each
// of the five indexes, load a base dataset, commit RetentionVersions
// versions of RetentionUpdates updates each into a version.Repo, GC down to
// the newest RetentionKeep commits, and report the space that came back.
//
// The first table extends the Figure 1 / §5.4.2 story from "versions are
// cheap to keep" to "versions are cheap to drop": Before is the deduplicated
// footprint with the full history resident, After is the footprint of just
// the retained window, and DedupRatio is η(S) over the retained versions —
// the structural sharing that remains after the history is bounded. On the
// disk backend a Disk column shows the segment-file bytes reclaimed by
// compaction; in-memory backends show "-".
//
// The second table reports the GC pass itself: marked live set, swept
// nodes, and DiskStore segments compacted.
func RetentionExp(sc Scale) ([]*Table, error) {
	k := sc.RetentionVersions
	if k < 2 {
		k = 2
	}
	keep := sc.RetentionKeep
	if keep < 1 {
		keep = 1
	}
	if keep > k {
		keep = k
	}

	spaceTable := &Table{
		ID:     "Retention(a)",
		Title:  fmt.Sprintf("space reclamation: %d versions GC'd to newest %d", k, keep),
		XLabel: "index",
		Columns: []string{
			"Before(MB)", "After(MB)", "Reclaimed(MB)", "Reclaimed%", "DedupRatio(retained)", "Disk(MB) before→after",
		},
		Note: fmt.Sprintf("%d base records, %d updates/version; Before/After = store unique bytes",
			sc.YCSBCounts[0], sc.RetentionUpdates),
	}
	gcTable := &Table{
		ID:      "Retention(b)",
		Title:   "GC pass accounting",
		XLabel:  "index",
		Columns: []string{"LiveNodes", "LiveMB", "SweptNodes", "SweptMB", "SegsCompacted"},
	}

	y := workload.NewYCSB(workload.YCSBConfig{Records: sc.YCSBCounts[0], Seed: 17})
	for _, cand := range Classes(sc) {
		idx, err := newIndex(sc, cand)
		if err != nil {
			return nil, fmt.Errorf("retention %s: %w", cand.Name, err)
		}
		idx, err = LoadBatched(idx, y.Dataset(), sc.Batch)
		if err != nil {
			ReleaseIndex(idx)
			return nil, fmt.Errorf("retention %s: load: %w", cand.Name, err)
		}
		repo := version.NewRepo(idx.Store())
		RegisterLoaders(repo, sc)
		if _, err := repo.Commit("main", idx, "initial load"); err != nil {
			ReleaseIndex(idx)
			return nil, fmt.Errorf("retention %s: %w", cand.Name, err)
		}
		for v := 1; v < k; v++ {
			z := workload.NewZipfian(uint64(sc.YCSBCounts[0]), 0.5, int64(v)*97)
			updates := make([]core.Entry, sc.RetentionUpdates)
			for j := range updates {
				id := int(z.Next())
				updates[j] = core.Entry{Key: y.Key(id), Value: y.Value(id, v)}
			}
			idx, err = idx.PutBatch(updates)
			if err != nil {
				ReleaseIndex(idx)
				return nil, fmt.Errorf("retention %s v%d: %w", cand.Name, v, err)
			}
			if _, err := repo.Commit("main", idx, fmt.Sprintf("version %d", v)); err != nil {
				ReleaseIndex(idx)
				return nil, fmt.Errorf("retention %s v%d: %w", cand.Name, v, err)
			}
		}

		log, err := repo.Log("main")
		if err != nil {
			ReleaseIndex(idx)
			return nil, fmt.Errorf("retention %s: %w", cand.Name, err)
		}
		retained := log[:keep] // newest first

		views := make([]core.Index, len(retained))
		for i, c := range retained {
			if views[i], err = repo.Checkout(c.ID); err != nil {
				ReleaseIndex(idx)
				return nil, fmt.Errorf("retention %s: checkout: %w", cand.Name, err)
			}
		}
		vs, err := core.AnalyzeVersions(views...)
		if err != nil {
			ReleaseIndex(idx)
			return nil, fmt.Errorf("retention %s: analyze: %w", cand.Name, err)
		}

		before := idx.Store().Stats().UniqueBytes
		diskBefore, hasDisk := store.DiskUsageOf(idx.Store())

		gst, err := repo.GC(retained...)
		if err != nil {
			ReleaseIndex(idx)
			return nil, fmt.Errorf("retention %s: GC: %w", cand.Name, err)
		}
		after := idx.Store().Stats().UniqueBytes
		diskCell := "-"
		if hasDisk {
			if diskAfter, ok := store.DiskUsageOf(idx.Store()); ok {
				diskCell = fmt.Sprintf("%s→%s", f1(MB(diskBefore)), f1(MB(diskAfter)))
			}
		}
		reclaimed := before - after
		pct := 0.0
		if before > 0 {
			pct = 100 * float64(reclaimed) / float64(before)
		}
		spaceTable.AddRow(cand.Name,
			f2(MB(before)), f2(MB(after)), f2(MB(reclaimed)), f1(pct),
			f2(vs.DedupRatio()), diskCell)
		gcTable.AddRow(cand.Name,
			fmt.Sprint(gst.LiveNodes), f2(MB(gst.LiveBytes)),
			fmt.Sprint(gst.Store.SweptNodes), f2(MB(gst.Store.SweptBytes)),
			fmt.Sprint(gst.Store.SegmentsCompacted))
		ReleaseIndex(idx)
	}
	return []*Table{spaceTable, gcTable}, nil
}

// RegisterLoaders installs the checkout loader of every class in
// Classes(sc), so commits of any class can be checked out and GC-marked.
// cmd/siribench's version and ingest verbs reuse it.
func RegisterLoaders(repo *version.Repo, sc Scale) {
	for _, c := range Classes(sc) {
		repo.RegisterLoader(c.Name, c.Load)
	}
}
