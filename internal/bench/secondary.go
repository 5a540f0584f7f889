package bench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/secondary"
	"repro/internal/store"
	"repro/internal/version"
)

// secondaryRowsPer is how many rows share one attribute value in the
// secondary workload; it matches the plantest honesty battery so the bench
// numbers and the enforced floor measure the same query shape.
const secondaryRowsPer = 6

// SecondaryExp measures the secondary-index extension (internal/secondary +
// internal/query), for every index class.
//
// The first table is the write-side price: wall time to load and commit the
// dataset through a table with no secondary versus the same table
// maintaining one derived-attribute secondary, with the overhead as a
// percentage. Every secondary write is a read-modify-write on the primary
// (the old row decides which derived keys die), so overhead well above the
// naive 2x is expected for per-op classes.
//
// The second table is what the read side buys: store node reads for one
// narrow exact query plus one short range query, executed cold (fresh
// repo + table over the same store, empty caches), routed through the
// secondary versus forced through a primary scan. The reduction column is
// the honesty ratio the plantest battery enforces at >=5x for pruning
// classes; MBT hash-partitions its keyspace, cannot prune an ordered
// range, and is expected to show no gain.
func SecondaryExp(sc Scale) ([]*Table, error) {
	rows := sc.SecondaryRows
	if rows <= 0 {
		rows = 1200
	}
	if rows < 40*secondaryRowsPer {
		rows = 40 * secondaryRowsPer // enough cities for the probes
	}

	insTable := &Table{
		ID:      "Secondary(a)",
		Title:   fmt.Sprintf("insert cost with secondary maintenance, %d rows (ms)", rows),
		XLabel:  "index",
		Columns: []string{"Primary(ms)", "+Secondary(ms)", "Overhead"},
		Note:    "both paths commit per batch; the secondary path co-commits both roots (extension)",
	}
	readTable := &Table{
		ID:     "Secondary(b)",
		Title:  "node reads for narrow queries, indexed route vs primary scan",
		XLabel: "index",
		Columns: []string{
			"Rows", "Indexed reads", "Scan reads", "Reduction",
		},
		Note: "cold opens; one exact + one range predicate; MBT cannot prune ranges, no gain expected",
	}

	for _, cls := range Classes(sc) {
		prim, withSec, err := secondaryInsertCost(sc, cls, rows)
		if err != nil {
			return nil, fmt.Errorf("secondary %s: insert: %w", cls.Name, err)
		}
		overhead := (withSec/prim - 1) * 100
		insTable.AddRow(cls.Name, f1(prim), f1(withSec), f1(overhead)+"%")

		matched, idxReads, scanReads, err := secondaryReadCost(sc, cls, rows)
		if err != nil {
			return nil, fmt.Errorf("secondary %s: reads: %w", cls.Name, err)
		}
		readTable.AddRow(cls.Name,
			fmt.Sprint(matched), fmt.Sprint(idxReads), fmt.Sprint(scanReads),
			f2(float64(scanReads)/float64(idxReads))+"x")
	}
	return []*Table{insTable, readTable}, nil
}

// secondaryRow is the workload row i: pks ascend with i and rowsPer
// consecutive rows share one city, the clustered layout a primary-key
// generator gives a derived attribute in practice.
func secondaryRow(i int) core.Entry {
	return core.Entry{
		Key:   []byte(fmt.Sprintf("pk-%06d", i)),
		Value: []byte(fmt.Sprintf("city-%04d|%030d", i/secondaryRowsPer, i)),
	}
}

// secondaryCity extracts the derived attribute: the value prefix before '|'.
func secondaryCity(_, value []byte) ([]byte, bool) {
	i := bytes.IndexByte(value, '|')
	if i < 0 {
		return nil, false
	}
	return value[:i], true
}

// secondaryLoad pushes the workload through tbl in Scale-sized batches and
// commits after each, returning the wall time.
func secondaryLoad(sc Scale, tbl *secondary.Table, rows int) (float64, error) {
	batch := sc.Batch
	if batch <= 0 {
		batch = 4000
	}
	start := time.Now()
	buf := make([]core.Entry, 0, batch)
	for i := 0; i < rows; i++ {
		buf = append(buf, secondaryRow(i))
		if len(buf) >= batch || i == rows-1 {
			if err := tbl.PutBatch(buf); err != nil {
				return 0, err
			}
			if _, err := tbl.Commit(fmt.Sprintf("load through %d", i)); err != nil {
				return 0, err
			}
			buf = buf[:0]
		}
	}
	return float64(time.Since(start)) / float64(time.Millisecond), nil
}

// secondaryInsertCost times the same load twice on fresh stores: through a
// table with no secondary defs, and through one maintaining the city index.
func secondaryInsertCost(sc Scale, cls Class, rows int) (prim, withSec float64, err error) {
	for _, withDef := range []bool{false, true} {
		s, err := sc.NewStore()
		if err != nil {
			return 0, 0, err
		}
		repo := version.NewRepo(s)
		RegisterLoaders(repo, sc)
		var defs []secondary.Def
		if withDef {
			defs = append(defs, secondary.Def{Attr: "city", Extract: secondaryCity, New: cls.New})
		}
		tbl, err := secondary.Open(repo, "main", cls.New, defs...)
		if err != nil {
			return 0, 0, err
		}
		ms, err := secondaryLoad(sc, tbl, rows)
		if err != nil {
			return 0, 0, err
		}
		if withDef {
			withSec = ms
		} else {
			prim = ms
		}
		_ = store.Release(s)
	}
	return prim, withSec, nil
}

// secondaryQueries runs the probe pair — one exact city (rowsPer rows) and
// one three-city range — through eng, returning how many rows came back.
func secondaryQueries(eng query.Engine, rows int) (int, error) {
	cities := rows / secondaryRowsPer
	exact := []byte(fmt.Sprintf("city-%04d", cities/2))
	lo := []byte(fmt.Sprintf("city-%04d", cities/4))
	hi := []byte(fmt.Sprintf("city-%04d", cities/4+3))
	matched := 0
	for _, q := range []query.Query{
		{Attr: "city", Exact: exact},
		{Attr: "city", Lo: lo, Hi: hi},
	} {
		got, _, err := eng.Query(q)
		if err != nil {
			return 0, err
		}
		matched += len(got)
	}
	return matched, nil
}

// secondaryReadCost builds the table once over a counting store, then runs
// the probe queries from two cold opens: one routed through the secondary,
// one forced through a primary scan. Returned reads are store Gets.
func secondaryReadCost(sc Scale, cls Class, rows int) (matched, idxReads, scanReads int, err error) {
	base, err := sc.NewStore()
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = store.Release(base) }()
	cs := store.NewCountingStore(base)

	repo := version.NewRepo(cs)
	RegisterLoaders(repo, sc)
	def := secondary.Def{Attr: "city", Extract: secondaryCity, New: cls.New}
	tbl, err := secondary.Open(repo, "main", cls.New, def)
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := secondaryLoad(sc, tbl, rows); err != nil {
		return 0, 0, 0, err
	}

	coldEngine := func(scanOnly bool) (query.Engine, error) {
		r := version.NewRepo(cs)
		RegisterLoaders(r, sc)
		t, err := secondary.Open(r, "main", cls.New, def)
		if err != nil {
			return nil, err
		}
		src := query.IndexSource(t.Primary())
		if scanOnly {
			return query.NewPlanner(src).BindAttr("city", secondaryCity), nil
		}
		return query.PlannerFor(src, t), nil
	}

	indexed, err := coldEngine(false)
	if err != nil {
		return 0, 0, 0, err
	}
	before := cs.NodeReads()
	matched, err = secondaryQueries(indexed, rows)
	if err != nil {
		return 0, 0, 0, err
	}
	idxReads = int(cs.NodeReads() - before)

	scanner, err := coldEngine(true)
	if err != nil {
		return 0, 0, 0, err
	}
	before = cs.NodeReads()
	scanMatched, err := secondaryQueries(scanner, rows)
	if err != nil {
		return 0, 0, 0, err
	}
	scanReads = int(cs.NodeReads() - before)
	if scanMatched != matched {
		return 0, 0, 0, fmt.Errorf("routes disagree: indexed %d rows, scan %d", matched, scanMatched)
	}
	return matched, idxReads, scanReads, nil
}
