package bench

import (
	"repro/internal/postree"
	"repro/internal/prolly"
)

// Fig22 reproduces Figure 22: Forkbase (POS-Tree) versus Noms (Prolly
// Tree) served through identical client/server plumbing. Both use 4KB
// nodes and a 67-byte window, Noms' defaults (§5.6.2); the difference under
// measurement is the internal-layer boundary detection — child-hash pattern
// matching versus re-rolling a window over serialized entries.
func Fig22(sc Scale) ([]*Table, error) {
	posCfg := postree.ConfigForNodeSize(4096)
	posCfg.Chunk.Window = 67
	systems := []Class{
		posTreeClass("Forkbase", posCfg),
		prollyClass("Noms", prolly.ConfigForNodeSize(4096)),
	}
	read := &Table{
		ID:      "Figure 22(a)",
		Title:   "Forkbase vs Noms read throughput (Kops/s)",
		XLabel:  "#Records",
		Columns: []string{"Forkbase", "Noms"},
		Note:    "4KB nodes, 67-byte window (Noms defaults)",
	}
	write := &Table{
		ID:      "Figure 22(b)",
		Title:   "Forkbase vs Noms write throughput (Kops/s)",
		XLabel:  "#Records",
		Columns: []string{"Forkbase", "Noms"},
	}
	// Paper protocol: initialize with n records, then measure 10K-record
	// read and write workloads (scaled to sc.Ops). Writes land per small
	// batch (Noms' API commits batches too); keep batches modest so
	// chunking work dominates over network framing.
	return servedTables(sc, "fig22", systems, read, write, func(c Class, n int) (float64, float64, error) {
		return servedCell(sc, c, n, 22, 2222, sc.Ops, 100, 9000)
	})
}
