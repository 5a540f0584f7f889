package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mbt"
	"repro/internal/mpt"
	"repro/internal/postree"
	"repro/internal/store"
)

// equivalenceBackends returns a factory per store backend, covering the
// full mem/sharded/disk/cached matrix the staged commit path flushes into.
func equivalenceBackends() []struct {
	name string
	new  func(t *testing.T) store.Store
} {
	open := func(t *testing.T, cfg store.Config) store.Store {
		t.Helper()
		s, err := store.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Release(s) })
		return s
	}
	return []struct {
		name string
		new  func(t *testing.T) store.Store
	}{
		{"mem", func(t *testing.T) store.Store {
			return open(t, store.Config{Backend: store.BackendMem})
		}},
		{"sharded", func(t *testing.T) store.Store {
			return store.NewShardedStore(8)
		}},
		{"disk", func(t *testing.T) store.Store {
			return open(t, store.Config{Backend: store.BackendDisk, Dir: t.TempDir()})
		}},
		{"cached", func(t *testing.T) store.Store {
			return open(t, store.Config{Backend: store.BackendMem, CacheBytes: 1 << 20})
		}},
	}
}

// indexOver builds one index class over the given store.
func indexOver(name string, s store.Store) (core.Index, error) {
	switch name {
	case "MPT":
		return mpt.New(s), nil
	case "MBT":
		return mbt.New(s, mbt.Config{Capacity: 64, Fanout: 8})
	case "POS-Tree":
		return postree.New(s, postree.ConfigForNodeSize(512)), nil
	}
	return nil, fmt.Errorf("unknown index class %q", name)
}

// TestStagedCommitEquivalence drives two replicas of every index class over
// every store backend through the same randomized mixed sequence of batch
// puts, single puts and deletes. Replica A applies batches through the
// staged PutBatch commit path; replica B decomposes every batch into
// sequential single Puts. After every operation both must agree on the root
// hash — the committed root of a staged batch is required to be
// byte-identical to the sequential path's (the tentpole invariant of the
// commit-time hashing write path). Run under -race to also exercise the
// store backends' batch locking.
func TestStagedCommitEquivalence(t *testing.T) {
	ops := genOps(1337, 140)
	for _, backend := range equivalenceBackends() {
		t.Run(backend.name, func(t *testing.T) {
			for _, class := range []string{"MPT", "MBT", "POS-Tree"} {
				t.Run(class, func(t *testing.T) {
					batched, err := indexOver(class, backend.new(t))
					if err != nil {
						t.Fatal(err)
					}
					sequential, err := indexOver(class, backend.new(t))
					if err != nil {
						t.Fatal(err)
					}
					oracle := make(map[string]string)
					for i, op := range ops {
						if batched, err = applyOp(batched, op); err != nil {
							t.Fatalf("batched: op %d (%s): %v", i, op, err)
						}
						// The sequential replica never uses PutBatch:
						// batches decompose into single Puts in input
						// order (later writes win either way).
						switch {
						case op.del:
							sequential, err = sequential.Delete(op.key)
						case op.batch != nil:
							for _, e := range op.batch {
								if sequential, err = sequential.Put(e.Key, e.Value); err != nil {
									break
								}
							}
						default:
							sequential, err = sequential.Put(op.key, op.value)
						}
						if err != nil {
							t.Fatalf("sequential: op %d (%s): %v", i, op, err)
						}
						applyOracle(oracle, op)
						if batched.RootHash() != sequential.RootHash() {
							t.Fatalf("%s/%s: staged and sequential roots diverged after op %d (%s): %v vs %v",
								backend.name, class, i, op, batched.RootHash(), sequential.RootHash())
						}
					}
					checkAgainstOracle(t, class, batched, oracle)
				})
			}
		})
	}
}

// TestStagedCommitMixedBatchDeletes pins the interleaving the random
// generator only sometimes produces: a batch immediately followed by
// deletes of half its keys, repeated so re-inserts of deleted keys flow
// through the staged path too.
func TestStagedCommitMixedBatchDeletes(t *testing.T) {
	for _, class := range []string{"MPT", "MBT", "POS-Tree"} {
		t.Run(class, func(t *testing.T) {
			batched, err := indexOver(class, store.NewMemStore())
			if err != nil {
				t.Fatal(err)
			}
			sequential, err := indexOver(class, store.NewMemStore())
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 4; round++ {
				batch := make([]core.Entry, 40)
				for i := range batch {
					batch[i] = core.Entry{
						Key:   []byte(fmt.Sprintf("k-%02d", (round*17+i)%60)),
						Value: []byte(fmt.Sprintf("r%d-v%d", round, i)),
					}
				}
				if batched, err = batched.PutBatch(batch); err != nil {
					t.Fatal(err)
				}
				for _, e := range batch {
					if sequential, err = sequential.Put(e.Key, e.Value); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < len(batch); i += 2 {
					if batched, err = batched.Delete(batch[i].Key); err != nil {
						t.Fatal(err)
					}
					if sequential, err = sequential.Delete(batch[i].Key); err != nil {
						t.Fatal(err)
					}
				}
				if batched.RootHash() != sequential.RootHash() {
					t.Fatalf("round %d: roots diverged: %v vs %v",
						round, batched.RootHash(), sequential.RootHash())
				}
			}
		})
	}
}
