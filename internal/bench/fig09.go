package bench

import (
	"fmt"

	"repro/internal/workload"
)

// Fig09 reproduces Figure 9: the distribution of traversed tree heights for
// a uniform write workload. Every operation's lookup path length is
// recorded; the table reports how many operations traversed each height.
func Fig09(sc Scale) ([]*Table, error) {
	cands := CandidateSet(sc)
	n := sc.LatencyRecords
	y := workload.NewYCSB(workload.YCSBConfig{Records: n, Theta: 0, WriteRatio: 1, Seed: 9})
	dataset := y.Dataset()

	histograms := make([]map[int]int, len(cands))
	maxH := 0
	for ci, cand := range cands {
		idx, err := newIndex(sc, cand)
		if err != nil {
			return nil, err
		}
		idx, err = LoadBatched(idx, dataset, sc.Batch)
		if err != nil {
			return nil, err
		}
		hist := map[int]int{}
		ops := y.Ops(sc.Ops)
		for _, op := range ops {
			pl, err := idx.PathLength(op.Entry.Key)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s: %w", cand.Name, err)
			}
			hist[pl]++
			if pl > maxH {
				maxH = pl
			}
		}
		histograms[ci] = hist
		ReleaseIndex(idx)
	}

	t := &Table{
		ID:      "Figure 9",
		Title:   "#operations (x1000) by traversed tree height, uniform write workload",
		XLabel:  "Tree Height",
		Columns: classNames(cands),
		Note:    fmt.Sprintf("%d records, %d operations", n, sc.Ops),
	}
	for h := 1; h <= maxH; h++ {
		any := false
		cells := make([]string, len(cands))
		for ci := range cands {
			c := histograms[ci][h]
			cells[ci] = f2(float64(c) / 1000)
			if c > 0 {
				any = true
			}
		}
		if any {
			t.AddRow(fmt.Sprint(h), cells...)
		}
	}
	return []*Table{t}, nil
}
