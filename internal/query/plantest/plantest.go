// Package plantest is the conformance battery for query planners over
// secondary indexes — the query-level sibling of core/indextest. Its
// point is honesty: a planner that claims an index route must actually
// read O(result) nodes, not O(data). RunPlannerTests cross-checks the
// two routes for correctness on every store backend, and CheckHonesty
// measures both routes on cold index instances over a
// store.CountingStore and fails unless the indexed route reads at least
// 5x fewer nodes than the scan route for narrow queries. The assertion
// cuts both ways by construction: CheckHonesty takes the engine factory
// as an argument, so the suite's own tests prove a planner that
// maintains the index but silently falls back to scanning is rejected.
package plantest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/secondary"
	"repro/internal/store"
	"repro/internal/version"
)

// Options describes one index class to the battery. The class backs both
// the primary and the secondary of the test table.
type Options struct {
	// New builds an empty index over s. Required.
	New func(s store.Store) (core.Index, error)
	// Loader reattaches to a committed root with the same configuration
	// New uses. Required: the battery reopens tables cold through it.
	Loader version.Loader
	// Pruned marks classes whose Range reads only the nodes overlapping
	// the bounds. Hash-partitioned classes (MBT) cannot prune: they stay
	// in the correctness battery but skip the node-read honesty check,
	// which their Range cannot pass by construction.
	Pruned bool
}

// EngineFactory builds the engine under test for one table. The shipped
// factory is ShippedEngine; the negative-control tests pass dishonest
// ones to prove the battery rejects them.
type EngineFactory func(src query.Source, tbl *secondary.Table) query.Engine

// ShippedEngine is the factory for the planner this repo actually ships:
// query.PlannerFor, every table Def bound to its secondary.
func ShippedEngine(src query.Source, tbl *secondary.Table) query.Engine {
	return query.PlannerFor(src, tbl)
}

// cityExtract derives the indexed attribute: the value prefix before
// '|'; rows without one stay out of the index (partial index).
func cityExtract(_, value []byte) ([]byte, bool) {
	i := bytes.IndexByte(value, '|')
	if i < 0 {
		return nil, false
	}
	return value[:i], true
}

func cityDef(opts Options) secondary.Def {
	return secondary.Def{Attr: "city", Extract: cityExtract, New: opts.New}
}

// RunPlannerTests runs the planner battery for one index class against
// every store backend: route cross-checking on a mutated-and-committed
// table, then the node-read honesty measurement (pruning classes only).
// Run under -race to make the backend dimension meaningful.
func RunPlannerTests(t *testing.T, name string, opts Options) {
	t.Helper()
	if opts.New == nil || opts.Loader == nil {
		t.Fatal("plantest: Options.New and Options.Loader are required")
	}
	for _, be := range backends() {
		be := be
		t.Run(be.name, func(t *testing.T) {
			t.Run("Correctness", func(t *testing.T) { testCorrectness(t, opts, be.open) })
			t.Run("Honesty", func(t *testing.T) {
				if !opts.Pruned {
					t.Skip("index class cannot prune range scans (hash-partitioned)")
				}
				if err := CheckHonesty(be.open(t), opts, ShippedEngine); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// storeFactory opens one fresh store per subtest, registering cleanup
// with t.
type storeFactory func(t *testing.T) store.Store

// backends enumerates the same four store configurations indextest and
// storetest certify.
func backends() []struct {
	name string
	open storeFactory
} {
	return []struct {
		name string
		open storeFactory
	}{
		{"mem", func(t *testing.T) store.Store { return store.NewMemStore() }},
		{"sharded", func(t *testing.T) store.Store { return store.NewShardedStore(4) }},
		{"disk", func(t *testing.T) store.Store {
			s, err := store.Open(store.Config{Backend: store.BackendDisk, Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("open disk store: %v", err)
			}
			t.Cleanup(func() { store.Release(s) })
			return s
		}},
		{"cached", func(t *testing.T) store.Store {
			return store.NewCachedStore(store.NewMemStore(), 1<<20)
		}},
	}
}

// openTable builds a repo (loader registered under the probed class
// name) and opens the test table on branch.
func openTable(s store.Store, opts Options, branch string) (*version.Repo, *secondary.Table, error) {
	probe, err := opts.New(s)
	if err != nil {
		return nil, nil, err
	}
	repo := version.NewRepo(s)
	repo.RegisterLoader(probe.Name(), opts.Loader)
	tbl, err := secondary.Open(repo, branch, opts.New, cityDef(opts))
	if err != nil {
		return nil, nil, err
	}
	return repo, tbl, nil
}

// testCorrectness loads, mutates and commits a table, then cross-checks
// the index route against the scan route for a spread of predicates —
// including the tombstone case: rows deleted and committed must vanish
// from attribute queries on both routes.
func testCorrectness(t *testing.T, opts Options, open storeFactory) {
	_, tbl, err := openTable(open(t), opts, "main")
	if err != nil {
		t.Fatal(err)
	}
	var batch []core.Entry
	for i := 0; i < 200; i++ {
		v := fmt.Sprintf("c%02d|v%d", i%20, i)
		if i%17 == 0 {
			v = fmt.Sprintf("unindexed-%d", i) // partial-index gap
		}
		batch = append(batch, core.Entry{
			Key:   []byte(fmt.Sprintf("pk-%04d", i)),
			Value: []byte(v),
		})
	}
	if err := tbl.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Tombstones: every row of city c03 goes away before the commit.
	for i := 0; i < 200; i++ {
		if i%20 == 3 && i%17 != 0 {
			if err := tbl.Delete([]byte(fmt.Sprintf("pk-%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tbl.Commit("load"); err != nil {
		t.Fatal(err)
	}

	indexed := ShippedEngine(query.IndexSource(tbl.Primary()), tbl)
	scan := query.NewPlanner(query.IndexSource(tbl.Primary())).BindAttr("city", cityExtract)

	queries := []query.Query{
		{Attr: "city", Exact: []byte("c05")},
		{Attr: "city", Exact: []byte("c03")},          // fully tombstoned
		{Attr: "city", Exact: []byte("no-such-city")}, // absent value
		{Attr: "city", Lo: []byte("c05"), Hi: []byte("c08")},
		{Attr: "city", Lo: []byte("c18"), Hi: nil},           // unbounded above
		{Attr: "city", Lo: nil, Hi: []byte("c02")},           // unbounded below
		{Attr: "city", Lo: nil, Hi: nil},                     // whole attribute
		{Attr: "city", Lo: []byte("c08"), Hi: []byte("c05")}, // inverted
		{Attr: "city", Lo: []byte("c05"), Hi: []byte("c05")}, // degenerate
		{Attr: "city", Hi: []byte{}},                         // empty hi
		{Attr: "city", Exact: []byte("c05"), Limit: 3},       // capped exact
	}
	for _, q := range queries {
		irows, iplan, err := indexed.Query(q)
		if err != nil {
			t.Fatalf("indexed %+v: %v", q, err)
		}
		if !iplan.UsedIndex || iplan.FellBack {
			t.Fatalf("indexed %+v reported plan %+v", q, iplan)
		}
		srows, splan, err := scan.Query(q)
		if err != nil {
			t.Fatalf("scan %+v: %v", q, err)
		}
		if splan.UsedIndex || !splan.FellBack {
			t.Fatalf("scan %+v reported plan %+v", q, splan)
		}
		if len(irows) != len(srows) {
			t.Fatalf("routes disagree on %+v: index %d rows, scan %d rows", q, len(irows), len(srows))
		}
		for i := range irows {
			if !bytes.Equal(irows[i].Key, srows[i].Key) || !bytes.Equal(irows[i].Value, srows[i].Value) {
				t.Fatalf("routes disagree on %+v at row %d: %q vs %q", q, i, irows[i].Key, srows[i].Key)
			}
		}
		// Spot-check the predicate actually holds on index-route rows.
		for _, r := range irows {
			av, ok := cityExtract(r.Key, r.Value)
			if !ok || !q.Matches(av) {
				t.Fatalf("row %q (value %q) fails predicate %+v", r.Key, r.Value, q)
			}
		}
	}

	// Tombstoned city is truly empty.
	rows, _, err := indexed.Query(query.Query{Attr: "city", Exact: []byte("c03")})
	if err != nil || len(rows) != 0 {
		t.Fatalf("tombstoned city returned %d rows, %v", len(rows), err)
	}
	// Primary-key queries and unknown attributes behave.
	rows, _, err = indexed.Query(query.Query{Exact: []byte("pk-0005")})
	if err != nil || len(rows) != 1 {
		t.Fatalf("pk query = %d rows, %v", len(rows), err)
	}
	if _, _, err := indexed.Query(query.Query{Attr: "price", Exact: []byte("9")}); !errors.Is(err, query.ErrUnknownAttr) {
		t.Fatalf("unknown attr err = %v", err)
	}
}

// Honesty-measurement shape: cities hold honestyRowsPer consecutive
// primary keys each, so the narrow result set is small against the
// honestyRows total whatever the node size.
const (
	honestyRows    = 2400
	honestyRowsPer = 6
)

func honestyRow(i int) core.Entry {
	return core.Entry{
		Key:   []byte(fmt.Sprintf("pk-%06d", i)),
		Value: []byte(fmt.Sprintf("city-%04d|%030d", i/honestyRowsPer, i)),
	}
}

// CheckHonesty is the node-read accounting assertion, exported so tests
// can prove it rejects dishonest engines. It builds a committed table
// over a store.CountingStore, then measures two cold table instances:
// one queried through the factory's engine, one through the scan-only
// fallback route. It returns an error unless the factory's engine
// produced the correct rows AND read at least 5x fewer nodes than the
// scan for the same narrow queries (one exact match of 6 rows, one
// 3-value range of 18 rows, out of 2400).
//
// Two separately-opened instances make both measurements cold: each
// starts with empty decoded-node caches, so every node visited reaches
// the store and the counter. A planner that routes through the secondary
// reads O(result) nodes; one that scans reads the whole primary once.
func CheckHonesty(s store.Store, opts Options, factory EngineFactory) error {
	cs := store.NewCountingStore(s)
	repo, tbl, err := openTable(cs, opts, "honesty")
	if err != nil {
		return err
	}
	batch := make([]core.Entry, honestyRows)
	oracle := make(map[string][]string) // city -> sorted pks
	for i := range batch {
		batch[i] = honestyRow(i)
		av, _ := cityExtract(batch[i].Key, batch[i].Value)
		oracle[string(av)] = append(oracle[string(av)], string(batch[i].Key))
	}
	if err := tbl.PutBatch(batch); err != nil {
		return err
	}
	if _, err := tbl.Commit("honesty load"); err != nil {
		return err
	}

	exact := query.Query{Attr: "city", Exact: []byte("city-0123")}
	rng := query.Query{Attr: "city", Lo: []byte("city-0100"), Hi: []byte("city-0103")}
	wantExact := oracle["city-0123"]
	wantRange := append(append(append([]string(nil),
		oracle["city-0100"]...), oracle["city-0101"]...), oracle["city-0102"]...)

	measure := func(eng query.Engine) (int64, error) {
		start := cs.NodeReads()
		rows, _, err := eng.Query(exact)
		if err != nil {
			return 0, err
		}
		if err := matchRows(rows, wantExact); err != nil {
			return 0, fmt.Errorf("exact query %w", err)
		}
		rows, _, err = eng.Query(rng)
		if err != nil {
			return 0, err
		}
		if err := matchRows(rows, wantRange); err != nil {
			return 0, fmt.Errorf("range query %w", err)
		}
		return cs.NodeReads() - start, nil
	}

	// Cold instance one: the engine under test.
	_, tblA, err := openTable2(repo, opts, "honesty")
	if err != nil {
		return err
	}
	indexReads, err := measure(factory(query.IndexSource(tblA.Primary()), tblA))
	if err != nil {
		return fmt.Errorf("plantest: engine under test: %w", err)
	}
	if indexReads == 0 {
		return errors.New("plantest: engine read no nodes; the counter is not wired up")
	}

	// Cold instance two: the scan baseline.
	_, tblB, err := openTable2(repo, opts, "honesty")
	if err != nil {
		return err
	}
	scanEng := query.NewPlanner(query.IndexSource(tblB.Primary())).BindAttr("city", cityExtract)
	scanReads, err := measure(scanEng)
	if err != nil {
		return fmt.Errorf("plantest: scan baseline: %w", err)
	}

	if scanReads < 5*indexReads {
		return fmt.Errorf(
			"plantest: narrow queries read %d nodes against a %d-node scan baseline (want >= 5x reduction): the engine is not routing through the index",
			indexReads, scanReads)
	}
	return nil
}

// openTable2 opens one more cold table instance on an existing repo.
func openTable2(repo *version.Repo, opts Options, branch string) (*version.Repo, *secondary.Table, error) {
	tbl, err := secondary.Open(repo, branch, opts.New, cityDef(opts))
	if err != nil {
		return nil, nil, err
	}
	return repo, tbl, nil
}

// matchRows compares result rows against the expected primary keys (rows
// come back key-sorted; so are the oracles by construction).
func matchRows(rows []query.Row, want []string) error {
	if len(rows) != len(want) {
		return fmt.Errorf("returned %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if string(r.Key) != want[i] {
			return fmt.Errorf("row %d = %q, want %q", i, r.Key, want[i])
		}
	}
	return nil
}
