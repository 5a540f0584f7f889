package bench

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// ScanExp measures ordered range-scan performance — the workload the paper
// keeps the MVMB+-Tree around as the baseline for, here opened up across
// all five indexes through core.Ranger. Two tables come out:
//
// The first sweeps selectivity: bounded scans covering 0.1%, 1% and 10% of
// the key space, reported as scanned entries per second per index. The
// ordered structures (MPT, POS-Tree, Prolly Tree, MVMB+-Tree) prune to the
// covered subtrees, so their cost tracks the result size; MBT must visit
// every bucket regardless of bounds — its hash partitioning trades range
// locality for balance — which is exactly the contrast the table shows.
//
// The second runs a YCSB-E-style mixed stream (95% scans of uniform length
// ≤ 100, 5% writes) and reports operations per second.
func ScanExp(sc Scale) ([]*Table, error) {
	n := sc.YCSBCounts[len(sc.YCSBCounts)-1]
	// WriteRatio 1 makes every non-scan op a write, matching YCSB-E's
	// 95% scan / 5% insert mix.
	y := workload.NewYCSB(workload.YCSBConfig{Records: n, WriteRatio: 1, Seed: 42})
	dataset := y.Dataset()
	sortedKeys := make([][]byte, len(dataset))
	for i, e := range dataset {
		sortedKeys[i] = e.Key
	}
	sort.Slice(sortedKeys, func(i, j int) bool { return bytes.Compare(sortedKeys[i], sortedKeys[j]) < 0 })

	cands := Classes(sc)
	names := classNames(cands)

	selTable := &Table{
		ID:      "RangeScan(a)",
		Title:   fmt.Sprintf("range-scan rate (Kentries/s), %d records", n),
		XLabel:  "selectivity",
		Columns: names,
		Note:    "bounded ordered scans; MBT cannot prune (hash-partitioned), the rest read only the covered subtrees",
	}
	ycsbETable := &Table{
		ID:      "RangeScan(b)",
		Title:   fmt.Sprintf("YCSB-E throughput (Kops/s), %d records, 95%% scans / 5%% writes", n),
		XLabel:  "workload",
		Columns: names,
	}

	selectivities := []float64{0.001, 0.01, 0.1}
	rates := make(map[string][]float64, len(cands))
	ycsbE := make([]string, 0, len(cands))
	for _, cand := range cands {
		idx, err := newIndex(sc, cand)
		if err != nil {
			return nil, fmt.Errorf("scan %s: %w", cand.Name, err)
		}
		idx, err = LoadBatched(idx, dataset, sc.Batch)
		if err != nil {
			ReleaseIndex(idx)
			return nil, fmt.Errorf("scan %s: load: %w", cand.Name, err)
		}
		for _, sel := range selectivities {
			rate, err := scanRate(idx, sortedKeys, sel)
			if err != nil {
				ReleaseIndex(idx)
				return nil, fmt.Errorf("scan %s sel=%g: %w", cand.Name, sel, err)
			}
			rates[cand.Name] = append(rates[cand.Name], rate)
		}
		ops := y.ScanOps(sc.Ops/4, 0.95, 100)
		tput, _, err := Throughput(idx, ops, WriteBatchFor(cand, sc.Batch))
		if err != nil {
			ReleaseIndex(idx)
			return nil, fmt.Errorf("scan %s ycsb-e: %w", cand.Name, err)
		}
		ycsbE = append(ycsbE, f1(tput/1000))
		ReleaseIndex(idx)
	}
	for i, sel := range selectivities {
		cells := make([]string, len(cands))
		for j, cand := range cands {
			cells[j] = f1(rates[cand.Name][i] / 1000)
		}
		selTable.AddRow(fmt.Sprintf("%.1f%%", sel*100), cells...)
	}
	ycsbETable.AddRow("E", ycsbE...)
	return []*Table{selTable, ycsbETable}, nil
}

// scanRate runs bounded scans covering a sel fraction of the sorted key
// space, with evenly spread start positions, and returns entries visited
// per second. Repeated scans share the index's decoded-node cache, as a
// real scan-heavy tenant would.
func scanRate(idx core.Index, sortedKeys [][]byte, sel float64) (float64, error) {
	n := len(sortedKeys)
	span := int(float64(n) * sel)
	if span < 1 {
		span = 1
	}
	const scans = 12
	visited := 0
	start := time.Now()
	for i := 0; i < scans; i++ {
		at := (i * (n - span)) / scans
		lo := sortedKeys[at]
		var hi []byte
		if at+span < n {
			hi = sortedKeys[at+span]
		}
		if err := core.RangeOf(idx, lo, hi, func(_, _ []byte) bool {
			visited++
			return true
		}); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed == 0 {
		elapsed = 1e-9
	}
	return float64(visited) / elapsed, nil
}
