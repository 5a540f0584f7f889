package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Fig10 reproduces Figure 10: per-operation latency distributions on YCSB
// for read and write workloads under balanced (θ=0) and highly skewed
// (θ=0.9) key selection. The paper plots full histograms; the tables report
// the distributions as mean / p50 / p90 / p99 per index.
func Fig10(sc Scale) ([]*Table, error) {
	var tables []*Table
	cases := []struct {
		id    string
		write bool
		theta float64
	}{
		{"Figure 10(a)", false, 0},
		{"Figure 10(b)", false, 0.9},
		{"Figure 10(c)", true, 0},
		{"Figure 10(d)", true, 0.9},
	}
	for _, c := range cases {
		t, err := latencyTable(sc, c.id, c.write, c.theta, nil)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// latencyTable measures per-op latency distributions for all candidates.
// When datasetFn is nil a YCSB dataset of sc.LatencyRecords records is
// used; otherwise datasetFn supplies the records and op keys.
func latencyTable(sc Scale, id string, write bool, theta float64, datasetFn func() ([]core.Entry, []workloadOp)) (*Table, error) {
	kind := "read"
	if write {
		kind = "write"
	}
	skew := "balanced"
	if theta > 0 {
		skew = "skewed"
	}
	cands := CandidateSet(sc)
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("%s latency (µs), %s: mean / p50 / p90 / p99", kind, skew),
		XLabel:  "Index",
		Columns: []string{"mean", "p50", "p90", "p99"},
	}
	for _, cand := range cands {
		var dataset []core.Entry
		var ops []workloadOp
		if datasetFn != nil {
			dataset, ops = datasetFn()
		} else {
			wr := 0.0
			if write {
				wr = 1.0
			}
			y := workload.NewYCSB(workload.YCSBConfig{
				Records: sc.LatencyRecords, Theta: theta, WriteRatio: wr, Seed: 10,
			})
			dataset = y.Dataset()
			ops = y.Ops(sc.Ops)
		}
		idx, err := newIndex(sc, cand)
		if err != nil {
			return nil, err
		}
		idx, err = LoadBatched(idx, dataset, sc.Batch)
		if err != nil {
			return nil, err
		}
		samples, _, err := Latencies(idx, ops)
		ReleaseIndex(idx)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", id, cand.Name, err)
		}
		t.AddRow(cand.Name,
			us(Mean(samples)), us(Percentile(samples, 0.5)),
			us(Percentile(samples, 0.9)), us(Percentile(samples, 0.99)))
	}
	return t, nil
}

// us renders a duration in microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000)
}
