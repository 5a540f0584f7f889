package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/store"
	"repro/internal/store/faultstore"
	"repro/internal/version"
	"repro/internal/workload"
)

// FaultsExp measures what the robustness machinery costs (an extension
// beyond the paper's experiments):
//
// Table (a) — recovery time vs segment count. A DiskStore is filled to a
// target segment count, its newest segment gets a torn tail appended (the
// bytes a crash mid-append leaves), and the experiment times the
// rebuild-on-open that scans every segment, truncates the tear, and
// re-indexes the directory. Recovery is a full-directory scan by design, so
// the time should grow linearly with the segment count.
//
// Table (b) — verify-on-read overhead. The same read and commit workload
// runs over a store wrapped in the fault injector with VerifyReads off and
// on (re-hash every Get against its content address — the paranoid mode the
// scrub uses per read). The gap is the price of continuous end-to-end
// verification versus trusting the store.
func FaultsExp(sc Scale) ([]*Table, error) {
	recovery, err := faultsRecoveryTable(sc)
	if err != nil {
		return nil, err
	}
	overhead, err := faultsVerifyTable(sc)
	if err != nil {
		return nil, err
	}
	return []*Table{recovery, overhead}, nil
}

// faultsRecoveryTable builds table (a): reopen latency against directories
// of growing segment counts, each with a torn final record.
func faultsRecoveryTable(sc Scale) (*Table, error) {
	const (
		segBytes   = 1 << 16
		payloadLen = 4096
	)
	recsPerSeg := int(segBytes) / payloadLen
	targets := []int{4, 16, 48}
	if sc.Ops < 1000 { // tiny/smoke scales: keep the disk footprint trivial
		targets = []int{2, 4, 8}
	}

	table := &Table{
		ID:      "Faults(a)",
		Title:   "crash-recovery (rebuild-on-open) time vs segment count",
		XLabel:  "segments",
		Columns: []string{"Records", "Reopen(µs)", "TornSegs", "TornBytes"},
		Note: fmt.Sprintf("append-only segments of %d KiB, %d B records, torn tail appended to the newest segment before reopen",
			segBytes>>10, payloadLen),
	}
	for _, segs := range targets {
		dir, err := os.MkdirTemp("", "siribench-faults-")
		if err != nil {
			return nil, fmt.Errorf("faults: %w", err)
		}
		openUS, rec, records, err := recoverOnce(dir, segBytes, payloadLen, segs*recsPerSeg)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("faults: %d segments: %w", segs, err)
		}
		table.AddRow(fmt.Sprint(rec.Segments),
			fmt.Sprint(records), fmt.Sprint(openUS),
			fmt.Sprint(rec.TornSegments), fmt.Sprint(rec.TornBytes))
	}
	return table, nil
}

// recoverOnce fills one store directory, tears the newest segment's tail,
// and times the recovering reopen.
func recoverOnce(dir string, segBytes int64, payloadLen, records int) (openUS int64, rec store.RecoverySummary, n int, err error) {
	d, err := store.OpenDiskStore(dir, store.DiskOptions{SegmentBytes: segBytes})
	if err != nil {
		return 0, rec, 0, err
	}
	payload := make([]byte, payloadLen)
	for i := 0; i < records; i++ {
		copy(payload, fmt.Sprintf("faults-record-%08d", i))
		d.Put(payload)
	}
	if err := d.Close(); err != nil {
		return 0, rec, 0, err
	}

	// The torn tail: a length header promising far more bytes than remain,
	// the shape a crash mid-append leaves.
	segments, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segments) == 0 {
		return 0, rec, 0, fmt.Errorf("no segments to tear: %v", err)
	}
	sort.Strings(segments)
	newest := segments[len(segments)-1]
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return 0, rec, 0, err
	}
	torn := bytes.Repeat([]byte{0xff}, 1024)
	if _, err := f.Write(torn); err != nil {
		f.Close()
		return 0, rec, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, rec, 0, err
	}

	start := time.Now()
	d2, err := store.OpenDiskStore(dir, store.DiskOptions{SegmentBytes: segBytes})
	elapsed := time.Since(start)
	if err != nil {
		return 0, rec, 0, err
	}
	defer d2.Close()
	rec = d2.Recovery()
	if rec.TornBytes == 0 {
		return 0, rec, 0, fmt.Errorf("reopen did not report the torn tail")
	}
	if got := d2.Stats().UniqueNodes; got != int64(records) {
		return 0, rec, 0, fmt.Errorf("recovered %d records, want %d", got, records)
	}
	return elapsed.Microseconds(), rec, records, nil
}

// faultsVerifyTable builds table (b): read and commit latency with
// verify-on-read off vs on.
func faultsVerifyTable(sc Scale) (*Table, error) {
	records := sc.YCSBCounts[0]
	reads := sc.Ops
	const commits = 8

	table := &Table{
		ID:      "Faults(b)",
		Title:   "read/commit latency with verify-on-read off vs on",
		XLabel:  "workload / verify",
		Columns: []string{"p50(µs)", "p95(µs)", "p99(µs)", "mean(µs)"},
	}
	var p50 [2]time.Duration
	for i, verify := range []bool{false, true} {
		readLat, commitLat, err := faultsVerifyPhase(sc, records, reads, commits, verify)
		if err != nil {
			return nil, fmt.Errorf("faults: verify=%v: %w", verify, err)
		}
		mode := "off"
		if verify {
			mode = "on"
		}
		table.AddRow("read / verify "+mode,
			us(Percentile(readLat, 0.50)), us(Percentile(readLat, 0.95)),
			us(Percentile(readLat, 0.99)), us(Mean(readLat)))
		table.AddRow("commit / verify "+mode,
			us(Percentile(commitLat, 0.50)), us(Percentile(commitLat, 0.95)),
			us(Percentile(commitLat, 0.99)), us(Mean(commitLat)))
		p50[i] = Percentile(readLat, 0.50)
	}
	ratio := 0.0
	if p50[0] > 0 {
		ratio = float64(p50[1]) / float64(p50[0])
	}
	table.Note = fmt.Sprintf("POS-Tree over MemStore behind the fault injector, %d records, %d reads, %d commits of %d updates; read p50 ratio on/off = %s",
		records, reads, commits, sc.RetentionUpdates, f2(ratio))
	return table, nil
}

// faultsVerifyPhase runs one configuration: reads through a loaded view and
// update commits through a Repo, both over the wrapped store.
func faultsVerifyPhase(sc Scale, records, reads, commits int, verify bool) (readLat, commitLat []time.Duration, err error) {
	pos := Classes(sc)[0] // POS-Tree
	base := store.NewMemStore()
	fs := faultstore.Wrap(base, faultstore.Config{VerifyReads: verify})

	y := workload.NewYCSB(workload.YCSBConfig{Records: records, Seed: 17})
	idx, err := pos.New(fs)
	if err != nil {
		return nil, nil, err
	}
	idx, err = LoadBatched(idx, y.Dataset(), sc.Batch)
	if err != nil {
		return nil, nil, err
	}
	height := 0
	if h, ok := idx.(interface{ Height() int }); ok {
		height = h.Height()
	}
	view, err := pos.Load(fs, idx.RootHash(), height)
	if err != nil {
		return nil, nil, err
	}

	rng := rand.New(rand.NewSource(23))
	readLat = make([]time.Duration, 0, reads)
	for i := 0; i < reads; i++ {
		k := y.Key(rng.Intn(records))
		start := time.Now()
		if _, _, err := view.Get(k); err != nil {
			return nil, nil, err
		}
		readLat = append(readLat, time.Since(start))
	}

	repo := version.NewRepo(fs)
	RegisterLoaders(repo, sc)
	if _, err := repo.Commit("main", idx, "initial load"); err != nil {
		return nil, nil, err
	}
	cur := idx
	commitLat = make([]time.Duration, 0, commits)
	for v := 1; v <= commits; v++ {
		next, err := updateVersion(cur, y, records, sc.RetentionUpdates, v)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		if _, err := repo.Commit("main", next, fmt.Sprintf("version %d", v)); err != nil {
			return nil, nil, err
		}
		commitLat = append(commitLat, time.Since(start))
		cur = next
	}
	return readLat, commitLat, nil
}
