package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/store/faultstore"
)

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// BENCHMARK.json and workloads.json must name exactly the workloads and
// metrics the command runs and prints.
func TestBenchmarkFilesMatchTheCode(t *testing.T) {
	type metric struct{ Name, Unit string }
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bm)
	var doc struct {
		Workloads map[string]json.RawMessage
		EndToEnd  map[string]string          `json:"end_to_end"`
		PerLayer  map[string]json.RawMessage `json:"per_layer"`
	}
	readJSON(t, "workloads.json", &doc)

	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	var listed, described []string
	for _, w := range bm.Workloads {
		listed = append(listed, w.Name)
	}
	for name := range doc.Workloads {
		described = append(described, name)
	}
	slices.Sort(listed)
	slices.Sort(described)
	if !slices.Equal(listed, names) || !slices.Equal(described, names) {
		t.Errorf("workloads: command runs %v, BENCHMARK.json lists %v, workloads.json describes %v", names, listed, described)
	}
	for _, c := range []struct {
		what    string
		printed []metricDef
		listed  []metric
		doc     func(string) bool
	}{
		{"end_to_end", e2eMetrics, bm.EndToEnd, func(n string) bool { _, ok := doc.EndToEnd[n]; return ok }},
		{"per_layer", layerMetrics, bm.PerLayer, func(n string) bool { _, ok := doc.PerLayer[n]; return ok }},
	} {
		if len(c.printed) != len(c.listed) {
			t.Errorf("%s: command prints %d metrics, BENCHMARK.json lists %d", c.what, len(c.printed), len(c.listed))
			continue
		}
		for i, m := range c.printed {
			if c.listed[i] != (metric{m.name, m.unit}) {
				t.Errorf("%s %d: command prints %s %s, BENCHMARK.json lists %s %s", c.what, i, m.name, m.unit, c.listed[i].Name, c.listed[i].Unit)
			}
			if !c.doc(m.name) {
				t.Errorf("%s: workloads.json does not describe %s", c.what, m.name)
			}
		}
	}
}

func TestTimingStoreKeepsEveryCapability(t *testing.T) {
	disk, err := store.OpenDiskStore(t.TempDir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ts := newTStore(disk, newTracer(false, false))
	if lost := lostCaps(disk, ts); len(lost) > 0 {
		t.Fatalf("wrapper drops %v", lost)
	}
	for _, c := range capabilities {
		if !c.has(disk) {
			t.Errorf("DiskStore lacks %s: the capability list no longer matches the store", c.name)
		}
		if !c.has(ts) {
			t.Errorf("wrapper lacks %s", c.name)
		}
	}
}

func TestLostCapsCatchesAHiddenCapability(t *testing.T) {
	disk, err := store.OpenDiskStore(t.TempDir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	bare := struct{ store.Store }{disk} // forwards only the base interface
	if lost := lostCaps(disk, bare); len(lost) == 0 {
		t.Fatal("a wrapper forwarding nothing but store.Store passed the capability check")
	}
}

// Every workload's traced pass must end at the untraced pass's roots (and,
// on ingest-mbt, with its store counts), pass every oracle and print every
// per-layer metric.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for name, def := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := tracedRun(def, name, 5, 1, filepath.Join(t.TempDir(), name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range layerMetrics {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("metric %s missing", m.name)
				}
			}
		})
	}
}

// ingestRun runs a short traced ingest-mbt pass and returns its store
// counts and per-layer metrics.
func ingestRun(t *testing.T, seed int64) (storeCounts, map[string]float64) {
	tr := newTracer(true, true)
	tr.lane()
	b := newIngest(seed).(*ingestBench)
	defer b.close()
	if err := b.setup(t.TempDir(), tr); err != nil {
		t.Fatal(err)
	}
	tr.measure()
	if err := b.run(limit{counts: []int{2000}}); err != nil {
		t.Fatal(err)
	}
	tr.stop()
	m := b.layers(tr.analyze())
	cnt := b.counts()
	if _, err := b.finish(); err != nil {
		t.Fatal(err)
	}
	return cnt, m
}

// The single-goroutine workload repeats its store writes and the counts
// derived from them exactly for one seed (reads within 0.1%, see
// storeCounts.sameWork), and a second seed runs clean.
func TestIngestCountsRepeatForOneSeed(t *testing.T) {
	c1, m1 := ingestRun(t, 7)
	c2, m2 := ingestRun(t, 7)
	if !c1.sameWork(c2) {
		t.Errorf("store counts differ: %+v vs %+v", c1, c2)
	}
	for _, name := range []string{
		"store.nodes_written_per_commit", "store.bytes_written_per_user_byte",
		"ingest.entries_per_merge", "ingest.wal_bytes_per_put",
	} {
		if m1[name] != m2[name] {
			t.Errorf("%s differs: %v vs %v", name, m1[name], m2[name])
		}
	}
	ingestRun(t, 8)
}

// A fixed latency injected under the store must show up as store self
// time — roughly the latency times the delayed calls — and not as MPT
// self time.
func TestTraceBlamesTheStore(t *testing.T) {
	// Sleeps on Linux overshoot by up to about a millisecond, so the delay
	// is long enough for the overshoot to stay a small share.
	const delay = 4 * time.Millisecond
	measure := func(slow bool) (storeSelf, mptSelf, delayed int64) {
		tr := newTracer(true, true)
		tr.lane()
		c := newChain(3).(*chain)
		var fs *faultstore.FaultStore
		c.wrap = func(s store.Store) store.Store {
			fs = faultstore.Wrap(s, faultstore.Config{})
			return fs
		}
		defer c.close()
		if err := c.setup(t.TempDir(), tr); err != nil {
			t.Fatal(err)
		}
		if slow {
			fs.SetConfig(faultstore.Config{Delay: delay, DelayEvery: 8})
		}
		tr.measure()
		if err := c.run(limit{counts: []int{3}}); err != nil {
			t.Fatal(err)
		}
		tr.stop()
		a := tr.analyze()
		for i := a.from; i < len(a.spans); i++ {
			switch name := a.spans[i].name; {
			case strings.HasPrefix(name, "store."):
				storeSelf += a.self[i]
			case strings.HasPrefix(name, "mpt."):
				mptSelf += a.self[i]
			}
		}
		return storeSelf, mptSelf, fs.Counters().Delays
	}
	s0, m0, _ := measure(false)
	s1, m1, n := measure(true)
	injected := n * int64(delay)
	if n == 0 {
		t.Fatal("no store call was delayed")
	}
	if grow := s1 - s0; grow < injected*9/10 || grow > injected*3/2 {
		t.Errorf("store self time grew %v for %v injected over %d calls", time.Duration(grow), time.Duration(injected), n)
	}
	if grow := m1 - m0; grow > injected/5 {
		t.Errorf("mpt self time grew %v for %v injected under the store", time.Duration(grow), time.Duration(injected))
	}
}
