package version_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/store"
	"repro/internal/version"
)

// TestCommitRetryLinearizable runs concurrent read-modify-writes of one
// branch through CommitRetry. Linearizability means no acked commit is
// overwritten: every acked key is in the final head, and the branch log is
// one parent chain holding exactly the seed plus every acked commit.
func TestCommitRetryLinearizable(t *testing.T) {
	const writers, perWriter = 8, 50
	repo := newRepo(store.NewMemStore())
	cls := classByName(t, "POS-Tree")
	seed, err := cls.new(repo.Store())
	if err != nil {
		t.Fatal(err)
	}
	if seed, err = seed.Put([]byte("seed"), []byte("0")); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Commit("main", seed, "seed"); err != nil {
		t.Fatal(err)
	}

	var (
		mu    sync.Mutex
		acked = map[hash.Hash][]byte{} // commit ID → the key it added
		wg    sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-%03d", w, i))
				c, err := version.CommitRetry(repo, "main", string(k), func(idx core.Index) (core.Index, error) {
					return idx.Put(k, k)
				})
				if errors.Is(err, version.ErrHeadMoved) {
					continue // retry budget exhausted under contention: not acked
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[c.ID] = k
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	head, err := repo.CheckoutBranch("main")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range acked {
		if v, ok, err := head.Get(k); err != nil || !ok || string(v) != string(k) {
			t.Fatalf("acked key %s lost: %q, %v, %v", k, v, ok, err)
		}
	}
	log, err := repo.Log("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != len(acked)+1 {
		t.Fatalf("log holds %d commits, want seed + %d acked", len(log), len(acked))
	}
	for _, c := range log[:len(log)-1] {
		if _, ok := acked[c.ID]; !ok {
			t.Fatalf("log commit %v (%s) was never acked", c.ID, c.Message)
		}
	}
	t.Logf("%d of %d commits acked", len(acked), writers*perWriter)
	if len(acked) < writers*perWriter/2 {
		t.Fatalf("only %d of %d commits acked", len(acked), writers*perWriter)
	}
}

// TestCommitOntoRejectsMovedHead pins the compare-and-swap contract the
// retry loop builds on: a commit whose expected parent is not the branch
// head records nothing.
func TestCommitOntoRejectsMovedHead(t *testing.T) {
	repo := newRepo(store.NewMemStore())
	cls := classByName(t, "MPT")
	idx, err := cls.new(repo.Store())
	if err != nil {
		t.Fatal(err)
	}
	a, err := idx.Put([]byte("a"), []byte("1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.CommitOnto("main", hash.Of([]byte("x")), a, "stale", nil); !errors.Is(err, version.ErrHeadMoved) {
		t.Fatalf("commit onto a parent of a missing branch = %v, want ErrHeadMoved", err)
	}
	first, err := repo.CommitOnto("main", hash.Null, a, "create", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Put([]byte("b"), []byte("2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.CommitOnto("main", hash.Null, b, "recreate", nil); !errors.Is(err, version.ErrHeadMoved) {
		t.Fatalf("create over an existing branch = %v, want ErrHeadMoved", err)
	}
	second, err := repo.CommitOnto("main", first.ID, b, "advance", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.CommitOnto("main", first.ID, b, "lost update", nil); !errors.Is(err, version.ErrHeadMoved) {
		t.Fatalf("commit onto a superseded head = %v, want ErrHeadMoved", err)
	}
	if head, _ := repo.Head("main"); head.ID != second.ID || len(head.Parents) != 1 || head.Parents[0] != first.ID {
		t.Fatalf("head = %v, want %v descending from %v", head, second.ID, first.ID)
	}
}
