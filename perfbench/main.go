// Command perfbench is the repository's benchmark. It runs one of three
// workloads over the real program — DiskStore, version.Repo, the three SIRI
// index classes, the ingest WAL front-end and the forkbase servlet — checks
// every output against an oracle, and prints the metrics listed in
// BENCHMARK.json at the repository root.
//
//	perfbench -workload chain-mpt -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it sets the workload up several times (setup_s is the
// median), measures for -seconds and prints the end-to-end metrics. With
// -trace 1 it runs a fixed number of operations twice from the same seed,
// untraced and then traced, requires both to end at identical branch-head
// roots, and prints the per-layer metrics taken from the trace. Layers are
// timed from outside the program: spans wrap the calls this command makes
// into each package's public functions, and a timing store wrapper wraps
// the store handed to the indexes and the repo.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The command exits non-zero when an oracle fails.
// workloads.json beside this file records, per workload, the loop shape,
// data sizes relative to the program's caches, the flush policy, the tail
// percentiles and which end-to-end metric each per-layer metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/hash"
)

// bench is one workload instance: one store, one repo, one run.
type bench interface {
	// setup opens the store under dir and preloads it.
	setup(dir string, tr *tracer) error
	// run drives the measured loops until lim says stop.
	run(lim limit) error
	// counts returns the timing store's counters.
	counts() storeCounts
	// finish runs the end-of-run oracles and returns the branch-head roots.
	finish() (map[string]hash.Hash, error)
	// e2e returns the end-to-end metrics of an untraced run.
	e2e(wall time.Duration) map[string]float64
	// layers returns the per-layer metrics of a traced run.
	layers(a *analysis) map[string]float64
	// ops returns the operations attempted and failed.
	ops() (attempted, failed int64)
	// sizes describes the set-up data relative to the program's caches.
	sizes() string
	close()
}

// workloadDef names a workload and how to build and size it.
type workloadDef struct {
	mk func(seed int64) bench
	// adopt makes spans on non-lane goroutines children of the lane that
	// started them (see tracer).
	adopt bool
	// traceOps returns the per-lane operation counts of a -trace 1 pass.
	traceOps func(seconds int) []int
	// sameWork: the workload runs on one goroutine, so its traced and
	// untraced passes must also do the same store work.
	sameWork bool
}

// setups is how many times a -trace 0 run sets up; setup_s is the median.
const setups = 5

var workloads = map[string]workloadDef{
	"chain-mpt":       {mk: newChain, adopt: true, traceOps: chainTraceOps},
	"wiki-served-pos": {mk: newWiki, adopt: false, traceOps: wikiTraceOps},
	"ingest-mbt":      {mk: newIngest, adopt: true, traceOps: ingestTraceOps, sameWork: true},
}

// tally counts a run's operations and failures; safe for concurrent use.
type tally struct {
	mu                sync.Mutex
	attempted, failed int64
	first             error
}

// note records one operation's outcome.
func (t *tally) note(err error) {
	t.mu.Lock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
	}
	t.mu.Unlock()
}

// ops returns the operations attempted and failed.
func (t *tally) ops() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// err returns the first failure noted.
func (t *tally) err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.first
}

// limit bounds a measured phase: by wall clock, or by a fixed operation
// count per lane (traced passes, so both passes do identical work).
type limit struct {
	deadline time.Time
	counts   []int
}

// more reports whether lane may start its op-th operation.
func (l limit) more(lane, op int) bool {
	if l.counts != nil {
		return op < l.counts[lane]
	}
	return time.Now().Before(l.deadline)
}

// metricDef is one printed metric.
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"get_p50_us", "us"},
	{"get_tail_us", "us"},
	{"commit_p50_ms", "ms"},
	{"commit_tail_ms", "ms"},
	{"write_entries_per_s", "1/s"},
	{"scan_p50_us", "us"},
	{"proof_p50_us", "us"},
	{"diff_p50_ms", "ms"},
	{"stored_bytes_per_user_byte", "ratio"},
	{"dedup_ratio", "ratio"},
	{"max_rss_mb", "MiB"},
}

var layerMetrics = []metricDef{
	{"forkbase.rtt_p50_us", "us"},
	{"forkbase.fetches_per_get", "count"},
	{"forkbase.get_local_p50_us", "us"},
	{"forkbase.get_fetch_p50_us", "us"},
	{"forkbase.busy_seen", "count"},
	{"store.put_batch_ms_per_commit", "ms"},
	{"store.nodes_written_per_commit", "count"},
	{"store.bytes_written_per_user_byte", "ratio"},
	{"store.gets_per_get", "count"},
	{"store.get_p50_us", "us"},
	{"store.node_serves", "count"},
	{"store.flush_p50_us", "us"},
	{"store.set_meta_p50_us", "us"},
	{"mpt.put_batch_self_ms", "ms"},
	{"mpt.get_self_p50_us", "us"},
	{"mpt.prove_p50_us", "us"},
	{"mpt.verify_p50_us", "us"},
	{"mpt.diff_store_gets", "count"},
	{"mbt.merge_put_batch_self_ms", "ms"},
	{"postree.preload_ms", "ms"},
	{"version.commit_self_p50_us", "us"},
	{"version.commit_attempts_per_commit", "count"},
	{"version.gc_pass_ms", "ms"},
	{"version.gc_live_nodes", "count"},
	{"version.gc_swept_bytes", "B"},
	{"ingest.put_p50_us", "us"},
	{"ingest.flush_p50_us", "us"},
	{"ingest.merge_ms_p50", "ms"},
	{"ingest.entries_per_merge", "count"},
	{"ingest.wal_bytes_per_put", "B"},
	{"ingest.range_store_gets_per_row", "count"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: chain-mpt, wiki-served-pos or ingest-mbt")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for stores, WALs and trace files")
	flag.Parse()
	def, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload chain-mpt|wiki-served-pos|ingest-mbt -seed N -seconds N -trace 0|1")
		os.Exit(2)
	}
	dir := filepath.Join(*workdir, *workload)
	if err := os.RemoveAll(dir); err != nil {
		fail(err)
	}
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(def, *workload, *seed, *seconds, dir)
	} else {
		res, err = untracedRun(def, *seed, *seconds, dir)
	}
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// untracedRun sets the workload up setups times, measures the last
// set-up for seconds and reports the end-to-end metrics.
func untracedRun(def workloadDef, seed int64, seconds int, dir string) (result, error) {
	off := newTracer(false, false)
	var setupS []float64
	var b bench
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		b = def.mk(seed)
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		if err := b.setup(sub, off); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i < setups-1 {
			b.close()
			b = nil
			if err := os.RemoveAll(sub); err != nil {
				return result{}, err
			}
		}
	}
	defer b.close()
	fmt.Println("sizes:", b.sizes())
	stopRSS := watchRSS()
	start := time.Now()
	err := b.run(limit{deadline: start.Add(time.Duration(seconds) * time.Second)})
	wall := time.Since(start)
	rss := stopRSS()
	if err != nil {
		return result{}, fmt.Errorf("run: %w", err)
	}
	t := time.Now()
	m := b.e2e(wall)
	m["setup_s"] = median(setupS)
	m["max_rss_mb"] = rss
	fmt.Printf("phase seconds: setups %v, measured %.3f, end metrics %.3f", setupS, wall.Seconds(), time.Since(t).Seconds())
	t = time.Now()
	_, ferr := b.finish()
	fmt.Printf(", oracles %.3f\n", time.Since(t).Seconds())
	return report(b, e2eMetrics, m, ferr), nil
}

// tracedRun runs the same fixed operation counts untraced and then traced,
// requires identical head roots, and reports the per-layer metrics.
func tracedRun(def workloadDef, name string, seed int64, seconds int, dir string) (result, error) {
	counts := def.traceOps(seconds)

	// Untraced pass: the baseline for trace_overhead_frac, the runtime
	// allocation metrics and the root comparison.
	b0 := def.mk(seed)
	if err := b0.setup(filepath.Join(dir, "untraced"), newTracer(false, false)); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	rt0 := readRuntime()
	start := time.Now()
	if err := b0.run(limit{counts: counts}); err != nil {
		b0.close()
		return result{}, fmt.Errorf("untraced run: %w", err)
	}
	loop0 := time.Since(start)
	rt1 := readRuntime()
	counts0 := b0.counts()
	roots0, err0 := b0.finish()
	att0, _ := b0.ops()
	b0.close()

	// Traced pass.
	tr := newTracer(true, def.adopt)
	tr.lane()
	b1 := def.mk(seed)
	defer b1.close()
	if err := b1.setup(filepath.Join(dir, "traced"), tr); err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	tr.measure()
	start = time.Now()
	if err := b1.run(limit{counts: counts}); err != nil {
		return result{}, fmt.Errorf("traced run: %w", err)
	}
	loop1 := time.Since(start)
	tr.stop()
	counts1 := b1.counts()
	roots1, err1 := b1.finish()

	m := b1.layers(tr.analyze())
	m["runtime.alloc_bytes_per_op"] = (rt1.allocBytes - rt0.allocBytes) / math.Max(1, float64(att0))
	m["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / math.Max(1e-9, rt1.totalCPU-rt0.totalCPU)
	m["trace_overhead_frac"] = (loop1.Seconds() - loop0.Seconds()) / loop0.Seconds()

	ferr := err0
	if ferr == nil {
		ferr = err1
	}
	if ferr == nil && !sameRoots(roots0, roots1) {
		ferr = fmt.Errorf("traced and untraced runs ended at different heads: %v vs %v", roots0, roots1)
	}
	if ferr == nil && def.sameWork && !counts0.sameWork(counts1) {
		ferr = fmt.Errorf("traced and untraced store counts differ: %+v vs %+v", counts0, counts1)
	}
	fmt.Printf("store counts untraced %+v traced %+v\n", counts0, counts1)
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return result{}, err
	}
	if err := tr.write(filepath.Join(filepath.Dir(dir), "trace-"+name+".tsv.gz")); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	return report(b1, layerMetrics, m, ferr), nil
}

func sameRoots(a, b map[string]hash.Hash) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// report prints every metric in defs as "name value unit" and builds the
// result object. Metrics a workload does not produce print as 0.
func report(b bench, defs []metricDef, m map[string]float64, checkErr error) result {
	att, failed := b.ops()
	res := result{Correct: checkErr == nil && failed == 0, Attempted: att, Failed: failed, Metrics: map[string]map[string]any{}}
	if checkErr != nil {
		fmt.Println("oracle failure:", checkErr)
	}
	fmt.Printf("%-36s %.6g ratio\n", "failed_op_frac", float64(failed)/math.Max(1, float64(att)))
	for _, d := range defs {
		v := m[d.name]
		fmt.Printf("%-36s %.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	return res
}

// runtimeSample is a point-in-time reading of the runtime counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

// watchRSS samples the resident set every 20 ms until the returned
// function is called, which returns the peak in MiB. Sampling bounds the
// peak to the measured phase; the process-lifetime peak getrusage reports
// would be set by whichever set-up allocated most, and is the fallback
// where /proc/self/statm is missing.
func watchRSS() (stop func() float64) {
	done, peak := make(chan struct{}), make(chan float64)
	go func() {
		page := float64(os.Getpagesize())
		best := 0.0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				var size, resident int64
				if _, err := fmt.Sscan(string(b), &size, &resident); err == nil {
					best = max(best, float64(resident)*page/(1<<20))
				}
			}
			select {
			case <-done:
				peak <- best
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		best := <-peak
		var ru syscall.Rusage
		if best == 0 && syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			best = float64(ru.Maxrss) / 1024 // KiB on Linux
		}
		return best
	}
}

// pct returns the p-th percentile (nearest rank) of xs.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return pct(xs, 50) }

// tail returns the p-th percentile of xs and prints it with the number of
// samples beyond it.
func tail(name string, xs []float64, p float64) float64 {
	v := pct(xs, p)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	fmt.Printf("%-36s p%g of %d samples, %d beyond\n", name, p, len(xs), beyond)
	return v
}

// us and ms convert a duration to microseconds and milliseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// nsToUs and nsToMs convert span durations.
func nsToUs(ns int64) float64 { return float64(ns) / 1e3 }
func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}
