package bench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// commitPathReps is how many times each throughput cell is measured; the
// best run is reported, which suppresses scheduler noise at small scales.
const commitPathReps = 3

// CommitPath measures the parallel commit pipeline end to end (an extension
// experiment; no paper figure corresponds). Table (a) reports batch-commit
// throughput per index class as the staged-writer worker count grows — the
// write-path cost the paper attributes to Merkle node encode+hash (§4),
// which is exactly the work the pipeline fans across cores. Table (b)
// reports the read path's allocations per warm Get, the figure the
// zero-copy decode contracts and decoded-node caches drive down. CI records
// both in the perf-trajectory JSON, so the serial-vs-parallel ratio and the
// allocs/op trend are comparable across PRs.
func CommitPath(sc Scale) ([]*Table, error) {
	n := sc.LatencyRecords
	if n <= 0 {
		n = 1000
	}
	entries := make([]core.Entry, n)
	for i := range entries {
		entries[i] = core.Entry{
			Key:   []byte(fmt.Sprintf("user%08d", (i*2654435761)%n)),
			Value: []byte(fmt.Sprintf("value-%08d-%08d", i, i)),
		}
	}

	candidates := Classes(sc)
	names := classNames(candidates)

	workerCounts := []int{1, 2, 4, 8}
	if g := runtime.GOMAXPROCS(0); g > 8 {
		workerCounts = append(workerCounts, g)
	}

	tput := &Table{
		ID:      "CommitPath(a)",
		Title:   fmt.Sprintf("batch commit throughput, %d-entry batch into an empty index (entries/s)", n),
		XLabel:  "workers",
		Columns: names,
		Note:    "workers = staged-writer hash workers (core.SetCommitWorkers); row 1 is the serial writer baseline",
	}
	for _, wc := range workerCounts {
		prev := core.SetCommitWorkers(wc)
		cells := make([]string, len(candidates))
		for ci, cand := range candidates {
			best := time.Duration(0)
			for rep := 0; rep < commitPathReps; rep++ {
				idx, err := newIndex(sc, cand)
				if err != nil {
					core.SetCommitWorkers(prev)
					return nil, err
				}
				start := time.Now()
				if _, err := idx.PutBatch(entries); err != nil {
					core.SetCommitWorkers(prev)
					return nil, err
				}
				elapsed := time.Since(start)
				ReleaseIndex(idx)
				if best == 0 || elapsed < best {
					best = elapsed
				}
			}
			cells[ci] = f1(float64(n) / best.Seconds())
		}
		core.SetCommitWorkers(prev)
		tput.AddRow(fmt.Sprintf("%d", wc), cells...)
	}

	allocs := &Table{
		ID:      "CommitPath(b)",
		Title:   "read path: allocations per warm Get (allocs/op)",
		XLabel:  "metric",
		Columns: names,
		Note:    "testing.AllocsPerRun over resident keys after cache warmup; the zero-copy decode + decoded-node cache path",
	}
	cells := make([]string, len(candidates))
	for ci, cand := range candidates {
		idx, err := newIndex(sc, cand)
		if err != nil {
			return nil, err
		}
		loaded, err := idx.PutBatch(entries)
		if err != nil {
			return nil, err
		}
		// Warm the decoded-node caches, then measure.
		probe := 0
		get := func() {
			k := entries[probe%len(entries)].Key
			probe++
			if _, _, err := loaded.Get(k); err != nil {
				panic(err)
			}
		}
		for i := 0; i < len(entries); i++ {
			get()
		}
		cells[ci] = f2(testing.AllocsPerRun(400, get))
		ReleaseIndex(loaded)
	}
	allocs.AddRow("allocs/op", cells...)

	return []*Table{tput, allocs}, nil
}
