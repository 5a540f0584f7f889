package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Fig08 reproduces Figure 8: diff latency between two versions that were
// loaded independently and in random order. Structural invariance lets the
// SIRI candidates prune identical regions by hash; the baseline, whose
// shape depends on load order, must compare record by record.
func Fig08(sc Scale) ([]*Table, error) {
	cands := CandidateSet(sc)
	t := &Table{
		ID:      "Figure 8",
		Title:   "diff latency (s) between two independently loaded versions",
		XLabel:  "#Records",
		Columns: classNames(cands),
		Note:    "versions differ in 1% of records; each loaded in its own random batch order",
	}
	for _, n := range sc.DiffCounts {
		y := workload.NewYCSB(workload.YCSBConfig{Records: n, Seed: 8})
		base := y.Dataset()
		// Version B: 1% of records updated.
		delta := n / 100
		if delta < 1 {
			delta = 1
		}
		other := make([]core.Entry, len(base))
		copy(other, base)
		for i := 0; i < delta; i++ {
			j := (i * 97) % n
			other[j] = core.Entry{Key: base[j].Key, Value: y.Value(j, 999)}
		}
		cells := make([]string, 0, len(cands))
		for _, cand := range cands {
			a, err := loadShuffled(sc, cand, base, 1)
			if err != nil {
				return nil, err
			}
			b, err := loadShuffled(sc, cand, other, 2)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			diffs, err := a.Diff(b)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s: %w", cand.Name, err)
			}
			elapsed := time.Since(start)
			ReleaseIndex(a)
			ReleaseIndex(b)
			if len(diffs) < delta {
				return nil, fmt.Errorf("fig8 %s: found %d diffs, want ≥ %d", cand.Name, len(diffs), delta)
			}
			cells = append(cells, f3(elapsed.Seconds()))
		}
		t.AddRow(fmt.Sprint(n), cells...)
	}
	return []*Table{t}, nil
}

// loadShuffled loads entries into a fresh instance of cand in a random
// batch order. Both diff sides share one store only when the candidate's
// New shares it; here each side gets its own store, matching two parties
// exchanging only root hashes — Diff then reads both stores through the
// respective index handles.
func loadShuffled(sc Scale, cand Class, entries []core.Entry, seed int64) (core.Index, error) {
	idx, err := newIndex(sc, cand)
	if err != nil {
		return nil, err
	}
	shuffled := make([]core.Entry, len(entries))
	copy(shuffled, entries)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return LoadBatched(idx, shuffled, sc.Batch)
}
