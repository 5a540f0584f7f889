package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/version"
)

// TestClassesReload commits a version of every class in the table and
// reopens it through both loaders the harness hands out: the repo checkout
// RegisterLoaders installs, and the forkbase client adapter.
func TestClassesReload(t *testing.T) {
	entries := make([]core.Entry, 200)
	for i := range entries {
		entries[i] = core.Entry{
			Key:   []byte(fmt.Sprintf("key-%04d", i)),
			Value: []byte(fmt.Sprintf("value-%04d", i)),
		}
	}
	probe := entries[137]
	more := make([]core.Entry, 300)
	for i := range more {
		more[i] = core.Entry{
			Key:   []byte(fmt.Sprintf("key-%04d", 3*i)),
			Value: []byte(fmt.Sprintf("rewritten-%04d", i)),
		}
	}
	for _, c := range Classes(TinyScale()) {
		t.Run(c.Name, func(t *testing.T) {
			s := store.NewMemStore()
			idx, err := c.New(s)
			if err != nil {
				t.Fatal(err)
			}
			if idx.Name() != c.Name {
				t.Fatalf("index reports class %q, table names it %q", idx.Name(), c.Name)
			}
			if idx, err = idx.PutBatch(entries); err != nil {
				t.Fatal(err)
			}
			repo := version.NewRepo(s)
			RegisterLoaders(repo, TinyScale())
			commit, err := repo.Commit("main", idx, "load")
			if err != nil {
				t.Fatal(err)
			}
			checkout, err := repo.CheckoutBranch("main")
			if err != nil {
				t.Fatal(err)
			}
			served := servedLoader(c.Load)(s, commit.Root, commit.Height)
			// A reloaded version must also keep the class's config: the
			// same further writes land on the same root as on the original.
			want, err := idx.PutBatch(more)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]core.Index{"checkout": checkout, "served loader": served} {
				if got.RootHash() != idx.RootHash() {
					t.Fatalf("%s root = %x, want %x", name, got.RootHash(), idx.RootHash())
				}
				v, ok, err := got.Get(probe.Key)
				if err != nil || !ok || string(v) != string(probe.Value) {
					t.Fatalf("%s Get(%q) = %q, %v, %v", name, probe.Key, v, ok, err)
				}
				next, err := got.PutBatch(more)
				if err != nil {
					t.Fatal(err)
				}
				if next.RootHash() != want.RootHash() {
					t.Fatalf("%s: root after further writes = %x, want %x", name, next.RootHash(), want.RootHash())
				}
			}
		})
	}
}

// TestSampleGetsReportsFailures checks the ingest latency sampler fails on
// a Get error or a missing resident key instead of reporting percentiles
// over the samples taken before it.
func TestSampleGetsReportsFailures(t *testing.T) {
	keys := [][]byte{[]byte("a"), []byte("b")}
	calls := 0
	failThird := func(err error, ok bool) func([]byte) ([]byte, bool, error) {
		return func([]byte) ([]byte, bool, error) {
			calls++
			if calls == 3 {
				return nil, ok, err
			}
			return []byte("v"), true, nil
		}
	}
	injected := errors.New("injected")
	if _, err := sampleGets(failThird(injected, false), keys, rand.New(rand.NewSource(1)), nil); !errors.Is(err, injected) {
		t.Fatalf("Get error: err = %v, want %v", err, injected)
	}
	calls = 0
	if _, err := sampleGets(failThird(nil, false), keys, rand.New(rand.NewSource(1)), nil); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing key: err = %v, want a missing-key error", err)
	}
	calls = 0
	out, err := sampleGets(failThird(nil, true), keys, rand.New(rand.NewSource(1)), nil)
	if err != nil || len(out) != 400 {
		t.Fatalf("all hits: %d samples, err %v; want 400, nil", len(out), err)
	}
}
