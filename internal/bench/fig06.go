package bench

import (
	"fmt"

	"repro/internal/workload"
)

// Fig06 reproduces Figure 6: YCSB throughput for every combination of
// skew θ ∈ {0, 0.5, 0.9} and write ratio ∈ {0, 0.5, 1}, across dataset
// sizes, for all four candidates. One table per subfigure (a)–(i).
func Fig06(sc Scale) ([]*Table, error) {
	thetas := []float64{0, 0.5, 0.9}
	writeRatios := []float64{0, 0.5, 1}
	cands := CandidateSet(sc)

	var tables []*Table
	sub := 'a'
	for _, theta := range thetas {
		for _, wr := range writeRatios {
			t := &Table{
				ID:      fmt.Sprintf("Figure 6(%c)", sub),
				Title:   fmt.Sprintf("YCSB throughput (Kops/s), θ=%.1f, write ratio=%.1f", theta, wr),
				XLabel:  "#Records",
				Columns: classNames(cands),
			}
			sub++
			for _, n := range sc.YCSBCounts {
				cells := make([]string, 0, len(cands))
				for _, cand := range cands {
					tput, err := fig06Cell(sc, cand, n, theta, wr)
					if err != nil {
						return nil, fmt.Errorf("fig6 %s n=%d: %w", cand.Name, n, err)
					}
					cells = append(cells, f1(tput/1000))
				}
				t.AddRow(fmt.Sprint(n), cells...)
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}

// fig06Cell loads n records into a fresh instance of cand and measures the
// operation throughput for the (theta, writeRatio) workload.
func fig06Cell(sc Scale, cand Class, n int, theta, writeRatio float64) (float64, error) {
	y := workload.NewYCSB(workload.YCSBConfig{
		Records: n, Theta: theta, WriteRatio: writeRatio, Seed: 42,
	})
	idx, err := newIndex(sc, cand)
	if err != nil {
		return 0, err
	}
	defer ReleaseIndex(idx) // all versions share idx's store
	idx, err = LoadBatched(idx, y.Dataset(), sc.Batch)
	if err != nil {
		return 0, err
	}
	tput, _, err := Throughput(idx, y.Ops(sc.Ops), WriteBatchFor(cand, sc.Batch))
	return tput, err
}
