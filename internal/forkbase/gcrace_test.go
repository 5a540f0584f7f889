package forkbase

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/postree"
	"repro/internal/query"
	"repro/internal/secondary"
	"repro/internal/store"
	"repro/internal/version"
)

// parkGate parks one caller, once armed, until the test releases it.
type parkGate struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *parkGate) park() {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
}

// gatedTree is a POS-Tree whose PutBatch parks after writing its nodes,
// holding a write batch with nodes written and nothing committed: the
// window in which a GC pass sweeps them.
type gatedTree struct {
	*postree.Tree
	gate *parkGate
}

func (g gatedTree) PutBatch(entries []core.Entry) (core.Index, error) {
	next, err := g.Tree.PutBatch(entries)
	if err != nil {
		return nil, err
	}
	g.gate.park()
	return gatedTree{Tree: next.(*postree.Tree), gate: g.gate}, nil
}

// TestTableServletSurvivesGCRace forces one write batch of a table
// servlet to lose its freshly written nodes to a GC pass before it
// commits (version.ErrCommitRaced). The servlet must redo the batch from
// the branch head, not build on the swept version: the write lands, later
// batches build on it, and the whole repo scrubs clean.
func TestTableServletSurvivesGCRace(t *testing.T) {
	cfg := postree.ConfigForNodeSize(256)
	gate := &parkGate{entered: make(chan struct{}), release: make(chan struct{})}
	// Every POS-Tree the table builds or checks out is gated, so the park
	// hits whichever version the servlet derives the batch from.
	repo := version.NewRepo(store.NewMemStore())
	repo.RegisterLoader("POS-Tree", func(s store.Store, root hash.Hash, height int) (core.Index, error) {
		return gatedTree{Tree: postree.Load(s, cfg, root, height), gate: gate}, nil
	})
	newPOS := func(s store.Store) (core.Index, error) { return gatedTree{Tree: postree.New(s, cfg), gate: gate}, nil }
	tbl, err := secondary.Open(repo, "main", newPOS, secondary.Def{Attr: "city", Extract: cityOf, New: newPOS})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.PutBatch(entriesN(100)); err != nil {
		t.Fatal(err)
	}
	seed, err := tbl.Commit("seed")
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServletTable(tbl)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(addr, posLoader(cfg), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	gate.armed.Store(true)
	put := make(chan error, 1)
	go func() {
		put <- cli.PutBatch([]core.Entry{{Key: []byte("pk-raced"), Value: []byte("oslo|raced")}})
	}()
	select {
	case <-gate.entered:
	case err := <-put:
		t.Fatalf("batch finished without reaching the gate: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("batch never reached the gate")
	}
	// The pass retains only the seed, so it sweeps the nodes the parked
	// batch wrote; its commit must then fail the GC admission check.
	if _, err := repo.GC(seed); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	if err := <-put; err != nil {
		t.Fatalf("raced batch: %v", err)
	}
	if err := cli.PutBatch([]core.Entry{{Key: []byte("pk-after"), Value: []byte("oslo|after")}}); err != nil {
		t.Fatalf("batch after the race: %v", err)
	}

	rows, plan, err := cli.Query(query.Query{Attr: "city", Exact: []byte("oslo")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !plan.UsedIndex {
		t.Fatalf("oslo rows = %d (plan %+v), want both batches through the index", len(rows), plan)
	}
	log, err := repo.Log("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 {
		t.Fatalf("log holds %d commits, want seed + 2 batches", len(log))
	}
	rep, err := repo.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verify after the GC race = %s, faults %v", rep, rep.Faults)
	}
}
