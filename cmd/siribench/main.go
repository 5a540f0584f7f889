// Command siribench regenerates the tables and figures of "Analysis of
// Indexing Structures for Immutable Data" (SIGMOD 2020).
//
// Usage:
//
//	siribench [-scale small|medium|full] [-store mem|disk] [experiment ...]
//	siribench [flags] version log|gc|verify
//	siribench [flags] verify
//	siribench [flags] ingest demo
//	siribench -list
//
// With no experiment arguments every experiment runs in paper order. Output
// is a text table per figure/subfigure with the same rows and series the
// paper plots.
//
// Every experiment can run against each node-store backend: -store selects
// it (in-memory, or append-only segment files on disk), -storedir places
// the latter, and -cache layers a bounded LRU node cache over whichever
// backend is active.
//
// The version verbs demonstrate the version-management subsystem
// (internal/version): `version log` builds a scale-sized commit history and
// prints it; `version gc` additionally garbage-collects it down to the
// newest -retain commits and reports the space reclaimed — on -store=disk
// including the segment bytes returned by compaction. `verify` (also
// reachable as `version verify`) garbage-collects the history and then
// scrubs the reachable graph end to end — every commit blob and index page
// re-read and re-hashed — exiting non-zero if anything is damaged.
//
// `ingest demo` walks the WAL-backed ingest front-end (internal/ingest)
// end to end: stream -ingest point writes through the memtable with
// auto-merges, close mid-stream with unmerged writes buffered, reopen to
// demonstrate WAL replay, finish the stream, merge, and scrub. The bare
// `ingest` argument runs the throughput/latency experiment instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/store"
)

func main() {
	scaleName := flag.String("scale", "medium", "experiment scale: tiny, small, medium or full")
	list := flag.Bool("list", false, "list available experiments and exit")
	jsonPath := flag.String("json", "",
		"also write a machine-readable report (ops/s tables + store stats per experiment) to this path, e.g. BENCH_2.json")
	storeName := flag.String("store", store.BackendMem,
		"node store backend: "+strings.Join(store.Backends(), ", "))
	storeDir := flag.String("storedir", "", "base directory for -store=disk segment files (default: OS temp dir)")
	cacheBytes := flag.Int64("cache", 0, "LRU node-cache bytes layered over the store backend (0 = no cache)")
	clientCache := flag.Int64("clientcache", 0,
		"forkbase client node-cache bytes for the system experiments (0 = paper default 64 MiB, negative = disabled)")
	retain := flag.Int("retain", 0,
		"commits to retain in the retention experiment and the `version gc` verb (0 = scale default)")
	ingestWrites := flag.Int("ingest", 0,
		"point writes for the ingest experiment and the `ingest demo` verb (0 = scale default)")
	overloadMS := flag.Int("overloadms", 0,
		"measurement window in milliseconds per overload-experiment cell (0 = scale default)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: siribench [-scale small|medium|full] [-store mem|disk] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "       siribench [flags] version log|gc|verify\n")
		fmt.Fprintf(os.Stderr, "       siribench [flags] verify\n")
		fmt.Fprintf(os.Stderr, "       siribench [flags] ingest demo\n\n")
		fmt.Fprintf(os.Stderr, "flags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nexperiments (default: all):\n")
		for _, e := range bench.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.Name, e.Desc)
		}
	}
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.Name, e.Desc)
		}
		return
	}

	scale, err := bench.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	scale.Store = bench.StoreConfig{
		Backend:    *storeName,
		Dir:        *storeDir,
		CacheBytes: *cacheBytes,
	}
	scale.ClientCacheBytes = *clientCache
	if *retain > 0 {
		scale.RetentionKeep = *retain
	}
	if *ingestWrites > 0 {
		scale.IngestWrites = *ingestWrites
	}
	if *overloadMS > 0 {
		scale.OverloadWindowMS = *overloadMS
	}
	// Reject unknown backends before hours of experiments start.
	if probe, err := scale.NewStore(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	} else {
		store.Release(probe)
	}

	if flag.NArg() > 0 && flag.Arg(0) == "version" {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: siribench [flags] version log|gc|verify")
			os.Exit(2)
		}
		if err := runVersionVerb(os.Stdout, scale, flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	// `siribench ingest demo` walks the WAL-backed ingest front-end:
	// stream writes with auto-merges, close mid-stream, reopen (WAL
	// replay), finish, merge and scrub. Bare `ingest` stays the
	// throughput/latency experiment.
	if flag.NArg() == 2 && flag.Arg(0) == "ingest" {
		if flag.Arg(1) != "demo" {
			fmt.Fprintln(os.Stderr, "usage: siribench [flags] ingest demo")
			os.Exit(2)
		}
		if err := runIngestVerb(os.Stdout, scale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	// `siribench verify` is shorthand for `version verify`: build the demo
	// history, GC it, then scrub the reachable graph end to end.
	if flag.NArg() == 1 && flag.Arg(0) == "verify" {
		if err := runVersionVerb(os.Stdout, scale, "verify"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var experiments []bench.Experiment
	if flag.NArg() == 0 {
		experiments = bench.Experiments()
	} else {
		for _, name := range flag.Args() {
			e, err := bench.ByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			experiments = append(experiments, e)
		}
	}

	storeDesc := *storeName
	if *cacheBytes > 0 {
		storeDesc += fmt.Sprintf("+%dB cache", *cacheBytes)
	}
	fmt.Printf("siribench: scale=%s, store=%s, %d experiment(s)\n\n", scale.Name, storeDesc, len(experiments))
	var report *bench.Report
	if *jsonPath != "" {
		report = bench.NewReport(scale.Name, storeDesc)
	}
	for _, e := range experiments {
		start := time.Now()
		var tables []*bench.Table
		var err error
		if report != nil {
			var stats store.Stats
			tables, stats, err = bench.RunWithStats(e, scale)
			if err == nil {
				report.Add(e, tables, stats, time.Since(start))
			}
		} else {
			tables, err = e.Run(scale)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.Name, err)
			os.Exit(1)
		}
		bench.FprintAll(os.Stdout, tables)
		fmt.Printf("[%s done in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if report != nil {
		if err := report.WriteFile(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("machine-readable report written to %s\n", *jsonPath)
	}
}
