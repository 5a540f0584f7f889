package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyScale aliases the exported TinyScale for the in-package tests.
func tinyScale() Scale { return TinyScale() }

func runExperiment(t *testing.T, name string) []*Table {
	t.Helper()
	exp, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := exp.Run(tinyScale())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", name)
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s table %q has no rows", name, tb.ID)
		}
		for _, r := range tb.Rows {
			if len(r.Cells) != len(tb.Columns) {
				t.Fatalf("%s table %q row %q: %d cells for %d columns",
					name, tb.ID, r.X, len(r.Cells), len(tb.Columns))
			}
		}
		var buf bytes.Buffer
		tb.Fprint(&buf)
		if !strings.Contains(buf.String(), tb.ID) {
			t.Fatalf("%s: printed table missing ID", name)
		}
	}
	return tables
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestFig01ShapeRawExceedsDedup(t *testing.T) {
	tables := runExperiment(t, "fig1")
	for _, r := range tables[0].Rows {
		dedup, raw := cellFloat(t, r.Cells[0]), cellFloat(t, r.Cells[1])
		if raw < dedup {
			t.Fatalf("version %s: raw %.2f < dedup %.2f", r.X, raw, dedup)
		}
	}
	// Raw grows faster than dedup across versions.
	first, last := tables[0].Rows[0], tables[0].Rows[len(tables[0].Rows)-1]
	rawGrowth := cellFloat(t, last.Cells[1]) - cellFloat(t, first.Cells[1])
	dedupGrowth := cellFloat(t, last.Cells[0]) - cellFloat(t, first.Cells[0])
	if rawGrowth <= dedupGrowth {
		t.Fatalf("raw growth %.2f not above dedup growth %.2f", rawGrowth, dedupGrowth)
	}
}

func TestFig06ProducesNineSubfigures(t *testing.T) {
	tables := runExperiment(t, "fig6")
	if len(tables) != 9 {
		t.Fatalf("fig6 produced %d tables, want 9", len(tables))
	}
	for _, tb := range tables {
		for _, r := range tb.Rows {
			for i, c := range r.Cells {
				if cellFloat(t, c) <= 0 {
					t.Fatalf("%s: non-positive throughput %q for %s", tb.ID, c, tb.Columns[i])
				}
			}
		}
	}
}

func TestFig07BothDatasets(t *testing.T) {
	tables := runExperiment(t, "fig7")
	if len(tables) != 2 {
		t.Fatalf("fig7 produced %d tables", len(tables))
	}
}

func TestFig08DiffLatencies(t *testing.T) {
	runExperiment(t, "fig8")
}

func TestFig09HeightsPlausible(t *testing.T) {
	tables := runExperiment(t, "fig9")
	// MBT heights are constant: exactly one row should carry its whole
	// op count. Find the MBT column.
	mbtCol := -1
	for i, c := range tables[0].Columns {
		if c == "MBT" {
			mbtCol = i
		}
	}
	if mbtCol < 0 {
		t.Fatal("no MBT column")
	}
	nonZero := 0
	for _, r := range tables[0].Rows {
		if cellFloat(t, r.Cells[mbtCol]) > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("MBT spread over %d heights, want exactly 1", nonZero)
	}
}

func TestFig10FourCases(t *testing.T) {
	tables := runExperiment(t, "fig10")
	if len(tables) != 4 {
		t.Fatalf("fig10 produced %d tables", len(tables))
	}
}

func TestFig11Fig12(t *testing.T) {
	runExperiment(t, "fig11")
	runExperiment(t, "fig12")
}

func TestFig13ScanGrowsLoadConstant(t *testing.T) {
	// Use a wider record range than tinyScale so bucket sizes differ by
	// 16x. The claim is checked on the deterministic counters, not the
	// wall-clock columns: the load phase visits the same number of nodes
	// at both sizes while the scan phase decodes proportionally more
	// bucket entries.
	sc := tinyScale()
	sc.YCSBCounts = []int{500, 8000}
	sc.MBTBuckets = 32
	tables, err := Fig13(sc)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	firstNodes, lastNodes := cellFloat(t, rows[0].Cells[2]), cellFloat(t, rows[1].Cells[2])
	if firstNodes != lastNodes {
		t.Fatalf("nodes/lookup changed with record count: %.2f → %.2f", firstNodes, lastNodes)
	}
	firstEntries, lastEntries := cellFloat(t, rows[0].Cells[3]), cellFloat(t, rows[1].Cells[3])
	if lastEntries < 8*firstEntries {
		t.Fatalf("entries/lookup grew %.1f → %.1f, want at least 8x", firstEntries, lastEntries)
	}
}

func TestFig14StorageMonotone(t *testing.T) {
	tables := runExperiment(t, "fig14")
	storage := tables[0]
	for col := range storage.Columns {
		prev := 0.0
		for _, r := range storage.Rows {
			v := cellFloat(t, r.Cells[col])
			if v < prev {
				t.Fatalf("%s storage shrinks with more records", storage.Columns[col])
			}
			prev = v
		}
	}
}

func TestFig15Fig16(t *testing.T) {
	runExperiment(t, "fig15")
	runExperiment(t, "fig16")
}

func TestFig17DedupImprovesWithOverlap(t *testing.T) {
	tables := runExperiment(t, "fig17")
	dedup := tables[2]
	for col := range dedup.Columns {
		first := cellFloat(t, dedup.Rows[0].Cells[col])
		last := cellFloat(t, dedup.Rows[len(dedup.Rows)-1].Cells[col])
		if last < first {
			t.Fatalf("%s dedup ratio decreases with overlap: %.3f → %.3f",
				dedup.Columns[col], first, last)
		}
	}
}

func TestFig18Runs(t *testing.T) {
	runExperiment(t, "fig18")
}

func TestTable3Runs(t *testing.T) {
	tables := runExperiment(t, "table3")
	if len(tables) != 3 {
		t.Fatalf("table3 produced %d tables", len(tables))
	}
}

func TestFig19AblationChangesStructure(t *testing.T) {
	tables := runExperiment(t, "fig19")
	// The ablated variant must measurably differ from the full tree; at
	// tiny scales lineage sharing can mask the direction (the paper's
	// 15-point drop appears at its scale), so the robust assertion is
	// that disabling the property changes the measured ratios at all and
	// that every ratio stays in [0, 1].
	differs := false
	for _, tb := range tables {
		for _, r := range tb.Rows {
			on, off := cellFloat(t, r.Cells[0]), cellFloat(t, r.Cells[1])
			if on < 0 || on > 1 || off < 0 || off > 1 {
				t.Fatalf("%s: ratio outside [0,1]: %v / %v", tb.ID, on, off)
			}
			if on != off {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("ablation had no measurable effect")
	}
}

func TestFig20AblationZeroSharing(t *testing.T) {
	tables := runExperiment(t, "fig20")
	for _, tb := range tables {
		for _, r := range tb.Rows {
			if v := cellFloat(t, r.Cells[1]); v != 0 {
				t.Fatalf("%s: non-recursively-identical ratio %v, want 0", tb.ID, v)
			}
		}
	}
}

func TestFig21Fig22SystemExperiments(t *testing.T) {
	runExperiment(t, "fig21")
	runExperiment(t, "fig22")
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "full", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Fatalf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentsHaveUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Desc == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.Name)
		}
	}
}

func TestPercentileAndMean(t *testing.T) {
	samples := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(samples, 0.5); p != 5 {
		t.Fatalf("p50 = %d", p)
	}
	if m := Mean(samples); m != 5 {
		t.Fatalf("mean = %d", m)
	}
	if Percentile(nil, 0.5) != 0 || Mean(nil) != 0 {
		t.Fatal("empty samples must yield zero")
	}
}

func TestTableFprintAlignment(t *testing.T) {
	tb := &Table{ID: "T", Title: "demo", XLabel: "x", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "10", "20")
	tb.AddRow("22", "3", "4")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // header line, column header, separator, 2 rows
		t.Fatalf("printed %d lines: %q", len(lines), buf.String())
	}
}

func TestFaultsExperiment(t *testing.T) {
	tables := runExperiment(t, "faults")
	if len(tables) != 2 {
		t.Fatalf("faults produced %d tables, want 2", len(tables))
	}
	// Every recovery row tore the newest segment and the reopen found it.
	for _, r := range tables[0].Rows {
		if r.Cells[2] == "0" || r.Cells[3] == "0" {
			t.Fatalf("recovery row %s reports no torn tail: %v", r.X, r.Cells)
		}
	}
}
