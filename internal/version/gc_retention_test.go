package version_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/version"
)

// retentionBackends enumerates the four store configurations the retention
// acceptance test crosses every index class with — the same set storetest
// and indextest certify.
func retentionBackends() []struct {
	name string
	open func(t *testing.T) store.Store
} {
	return []struct {
		name string
		open func(t *testing.T) store.Store
	}{
		{"mem", func(t *testing.T) store.Store { return store.NewMemStore() }},
		{"sharded", func(t *testing.T) store.Store { return store.NewShardedStore(4) }},
		{"disk", func(t *testing.T) store.Store {
			// Small segments so the 50-version history spans several files
			// and compaction gets real work.
			d, err := store.OpenDiskStore(t.TempDir(), store.DiskOptions{SegmentBytes: 1 << 16})
			if err != nil {
				t.Fatalf("open disk store: %v", err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}},
		{"cached", func(t *testing.T) store.Store {
			return store.NewCachedStore(store.NewMemStore(), 1<<20)
		}},
	}
}

// versionProbe snapshots everything the acceptance criteria require to be
// byte-identical across GC for one retained version.
type versionProbe struct {
	commit version.Commit
	root   hash32
	values map[string][]byte // key → value (nil = absent)
	proofs map[string]*core.Proof
}

type hash32 = [32]byte

// snapshotVersion records a version's root, every probe key's Get result,
// and proofs for the keys present.
func snapshotVersion(t *testing.T, idx core.Index, c version.Commit, probeKeys [][]byte) versionProbe {
	t.Helper()
	p := versionProbe{
		commit: c,
		root:   c.Root,
		values: make(map[string][]byte),
		proofs: make(map[string]*core.Proof),
	}
	if idx.RootHash() != c.Root {
		t.Fatalf("checkout root %v != commit root %v", idx.RootHash(), c.Root)
	}
	for _, k := range probeKeys {
		v, ok, err := idx.Get(k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if !ok {
			p.values[string(k)] = nil
			continue
		}
		p.values[string(k)] = append([]byte(nil), v...)
		proof, err := idx.Prove(k)
		if err != nil {
			t.Fatalf("Prove(%q): %v", k, err)
		}
		if err := idx.VerifyProof(idx.RootHash(), proof); err != nil {
			t.Fatalf("VerifyProof(%q) before GC: %v", k, err)
		}
		p.proofs[string(k)] = proof
	}
	return p
}

// checkVersion re-checks a snapshot against a fresh checkout after GC.
func checkVersion(t *testing.T, repo *version.Repo, p versionProbe, probeKeys [][]byte) {
	t.Helper()
	idx, err := repo.Checkout(p.commit.ID)
	if err != nil {
		t.Fatalf("Checkout after GC: %v", err)
	}
	if idx.RootHash() != p.root {
		t.Fatalf("RootHash changed across GC: %v != %v", idx.RootHash(), p.root)
	}
	for _, k := range probeKeys {
		v, ok, err := idx.Get(k)
		if err != nil {
			t.Fatalf("Get(%q) after GC: %v", k, err)
		}
		want := p.values[string(k)]
		if want == nil {
			if ok {
				t.Fatalf("key %q appeared after GC", k)
			}
			continue
		}
		if !ok || !bytes.Equal(v, want) {
			t.Fatalf("Get(%q) after GC = %q, %v; want %q", k, v, ok, want)
		}
		// The pre-GC proof still verifies against the root, and a fresh
		// proof is byte-identical to the pre-GC one.
		if err := idx.VerifyProof(p.root, p.proofs[string(k)]); err != nil {
			t.Fatalf("pre-GC proof for %q no longer verifies: %v", k, err)
		}
		fresh, err := idx.Prove(k)
		if err != nil {
			t.Fatalf("Prove(%q) after GC: %v", k, err)
		}
		if !bytes.Equal(fresh.Value, p.proofs[string(k)].Value) ||
			len(fresh.Path) != len(p.proofs[string(k)].Path) {
			t.Fatalf("proof for %q changed shape across GC", k)
		}
		for i := range fresh.Path {
			if !bytes.Equal(fresh.Path[i], p.proofs[string(k)].Path[i]) {
				t.Fatalf("proof path[%d] for %q changed across GC", i, k)
			}
		}
	}
}

// TestGCRetention is the acceptance scenario: K=50 committed versions,
// GC retaining the last 5, for every index class × every store backend.
// Every retained version's RootHash, Get results and proofs must be
// byte-identical before and after GC; dropped versions must be gone; on the
// disk backend the on-disk footprint must shrink.
func TestGCRetention(t *testing.T) {
	const (
		versions = 50
		keep     = 5
		keySpace = 80
		updates  = 10
	)
	probeKeys := make([][]byte, keySpace)
	for i := range probeKeys {
		probeKeys[i] = key(i)
	}
	for _, cls := range classes() {
		cls := cls
		t.Run(cls.name, func(t *testing.T) {
			for _, be := range retentionBackends() {
				be := be
				t.Run(be.name, func(t *testing.T) {
					s := be.open(t)
					repo := newRepo(s)
					idx, err := cls.new(s)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(7))
					commits := make([]version.Commit, 0, versions)
					for v := 0; v < versions; v++ {
						batch := make([]core.Entry, updates)
						for j := range batch {
							k := rng.Intn(keySpace)
							batch[j] = core.Entry{Key: key(k), Value: val(k, v)}
						}
						idx, err = idx.PutBatch(batch)
						if err != nil {
							t.Fatal(err)
						}
						c, err := repo.Commit("main", idx, fmt.Sprintf("v%d", v))
						if err != nil {
							t.Fatal(err)
						}
						commits = append(commits, c)
					}

					retained := commits[versions-keep:]
					dropped := commits[:versions-keep]
					probes := make([]versionProbe, len(retained))
					for i, c := range retained {
						view, err := repo.Checkout(c.ID)
						if err != nil {
							t.Fatal(err)
						}
						probes[i] = snapshotVersion(t, view, c, probeKeys)
					}

					var diskBefore int64
					if u, ok := store.DiskUsageOf(s); ok {
						diskBefore = u
					}
					uniqueBefore := s.Stats().UniqueBytes

					st, err := repo.GC(retained...)
					if err != nil {
						t.Fatalf("GC: %v", err)
					}
					if st.RetainedCommits != keep || st.DroppedCommits != versions-keep {
						t.Fatalf("GC commit counts = %+v", st)
					}
					if st.Store.SweptNodes == 0 {
						t.Fatalf("GC swept nothing: %+v", st)
					}
					if after := s.Stats().UniqueBytes; after >= uniqueBefore {
						t.Fatalf("unique footprint did not shrink: %d -> %d", uniqueBefore, after)
					}
					if u, ok := store.DiskUsageOf(s); ok {
						if u >= diskBefore {
							t.Fatalf("disk usage did not shrink after GC: %d -> %d", diskBefore, u)
						}
					}

					// Retained versions are byte-identical.
					for _, p := range probes {
						checkVersion(t, repo, p, probeKeys)
					}
					// Dropped versions are gone from the log, and their
					// pre-GC views cannot silently serve swept state.
					for _, c := range dropped {
						if _, ok := repo.Lookup(c.ID); ok {
							t.Fatalf("dropped commit %v still in log", c)
						}
						if _, err := repo.Checkout(c.ID); !errors.Is(err, version.ErrUnknownCommit) {
							t.Fatalf("checkout of dropped commit: %v", err)
						}
					}
				})
			}
		})
	}
}

// TestGCRepeatedRetention drives several GC rounds over one history —
// retention applied again and again, as a production retention policy would
// — asserting the head version never degrades and space never grows.
func TestGCRepeatedRetention(t *testing.T) {
	const rounds, perRound, keep = 4, 12, 3
	cls := classByName(t, "POS-Tree")
	s := store.NewMemStore()
	repo := newRepo(s)
	idx, err := cls.new(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var all []version.Commit
	for round := 0; round < rounds; round++ {
		for v := 0; v < perRound; v++ {
			gen := round*perRound + v
			batch := make([]core.Entry, 8)
			for j := range batch {
				k := rng.Intn(60)
				batch[j] = core.Entry{Key: key(k), Value: val(k, gen)}
			}
			idx, err = idx.PutBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			c, err := repo.Commit("main", idx, fmt.Sprintf("g%d", gen))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, c)
		}
		retained := all[len(all)-keep:]
		head := retained[len(retained)-1]
		headView, err := repo.Checkout(head.ID)
		if err != nil {
			t.Fatal(err)
		}
		wantRoot := headView.RootHash()
		if _, err := repo.GC(retained...); err != nil {
			t.Fatalf("round %d GC: %v", round, err)
		}
		after, err := repo.CheckoutBranch("main")
		if err != nil {
			t.Fatal(err)
		}
		if after.RootHash() != wantRoot {
			t.Fatalf("round %d: head root changed across GC", round)
		}
		if n, err := after.Count(); err != nil || n == 0 {
			t.Fatalf("round %d: Count after GC = %d, %v", round, n, err)
		}
		all = append([]version.Commit(nil), retained...)
		// Keep committing on the surviving head.
		idx = after
	}
}
