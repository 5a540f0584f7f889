package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/postree"
)

// ablationTables sweeps the overlap ratio for two POS-Tree configurations
// (the full tree and one with a SIRI property disabled) and reports the
// deduplication and node sharing ratios, as in Figures 19 and 20.
func ablationTables(sc Scale, figure string, onLabel, offLabel string, off postree.Ablation) ([]*Table, error) {
	dedup := &Table{
		ID:      figure + "(a)",
		Title:   "deduplication ratio",
		XLabel:  "Overlap Ratio (%)",
		Columns: []string{onLabel, offLabel},
	}
	sharing := &Table{
		ID:      figure + "(b)",
		Title:   "node sharing ratio",
		XLabel:  "Overlap Ratio (%)",
		Columns: []string{onLabel, offLabel},
	}
	mkCand := func(ab postree.Ablation) Class {
		cfg := postree.ConfigForNodeSize(sc.NodeSize)
		cfg.Ablation = ab
		return posTreeClass("POS-Tree", cfg)
	}
	for _, ratio := range []int{10, 20, 40, 60, 80, 100} {
		var dedupCells, sharingCells []string
		for _, ab := range []postree.Ablation{postree.AblationNone, off} {
			versions, err := collabRun(mkCand(ab), sc, sc.CollabParties, float64(ratio)/100, sc.Batch)
			if err != nil {
				return nil, fmt.Errorf("%s ratio=%d: %w", figure, ratio, err)
			}
			st, err := core.AnalyzeVersions(versions...)
			ReleaseVersions(versions)
			if err != nil {
				return nil, err
			}
			dedupCells = append(dedupCells, f3(st.DedupRatio()))
			sharingCells = append(sharingCells, f3(st.NodeSharingRatio()))
		}
		dedup.AddRow(fmt.Sprint(ratio), dedupCells...)
		sharing.AddRow(fmt.Sprint(ratio), sharingCells...)
	}
	return []*Table{dedup, sharing}, nil
}

// Fig19 reproduces Figure 19: POS-Tree with the Structurally Invariant
// property disabled (fixed-size local splits instead of pattern-aware
// partitioning) loses deduplication and node sharing.
func Fig19(sc Scale) ([]*Table, error) {
	return ablationTables(sc, "Figure 19",
		"Structurally invariant", "Non-structurally-invariant",
		postree.AblationNoStructuralInvariance)
}
