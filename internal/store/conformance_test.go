package store_test

import (
	"os"
	"testing"

	"repro/internal/store"
	"repro/internal/store/storetest"
)

// TestConformance runs the shared store contract against every backend,
// including the cache and read-counting wrappers and the factory-built
// configurations.
func TestConformance(t *testing.T) {
	backends := []struct {
		name string
		new  storetest.Factory
	}{
		{"MemStore", func(t *testing.T) store.Store {
			return store.NewMemStore()
		}},
		{"ShardedStore", func(t *testing.T) store.Store {
			return store.NewShardedStore(8)
		}},
		{"ShardedStore1", func(t *testing.T) store.Store {
			return store.NewShardedStore(1) // degenerate single shard
		}},
		{"CachedStore", func(t *testing.T) store.Store {
			return store.NewCachedStore(store.NewMemStore(), 1<<20)
		}},
		{"DiskStore", func(t *testing.T) store.Store {
			d, err := store.OpenDiskStore(t.TempDir(), store.DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}},
		{"DiskStoreTinySegments", func(t *testing.T) store.Store {
			// Tiny segments + tiny flush buffer force rolling and
			// read-after-flush paths inside the suite.
			d, err := store.OpenDiskStore(t.TempDir(), store.DiskOptions{SegmentBytes: 256, FlushBytes: 64})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}},
		{"CountingStore", func(t *testing.T) store.Store {
			return store.NewCountingStore(store.NewMemStore())
		}},
		{"CountingDiskStore", func(t *testing.T) store.Store {
			d, err := store.OpenDiskStore(t.TempDir(), store.DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c := store.NewCountingStore(d)
			t.Cleanup(func() { store.Release(c) })
			return c
		}},
		{"CachedDiskStore", func(t *testing.T) store.Store {
			s, err := store.Open(store.Config{Backend: store.BackendDisk, Dir: t.TempDir(), CacheBytes: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Release(s) })
			return s
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			storetest.RunStoreTests(t, b.new)
		})
	}
}

func TestOpenSelectsBackend(t *testing.T) {
	s, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*store.MemStore); !ok {
		t.Fatalf("zero config opened %T, want *MemStore", s)
	}

	if n := store.NewShardedStore(5).ShardCount(); n != 8 {
		t.Fatalf("ShardCount = %d, want 8 (rounded up)", n)
	}

	s, err = store.Open(store.Config{Backend: store.BackendDisk, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*store.DiskStore); !ok {
		t.Fatalf("disk config opened %T", s)
	}
	if err := store.Release(s); err != nil {
		t.Fatal(err)
	}

	if _, err := store.Open(store.Config{Backend: "bogus"}); err == nil {
		t.Fatal("unknown backend did not error")
	}
}

func TestOpenCacheLayering(t *testing.T) {
	s, err := store.Open(store.Config{Backend: store.BackendMem, CacheBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*store.CachedStore); !ok {
		t.Fatalf("CacheBytes>0 opened %T, want *CachedStore", s)
	}
}

// TestOpenDiskIsEphemeral checks that factory-built disk stores clean their
// temp directory up on Release, and KeepFiles preserves it.
func TestOpenDiskIsEphemeral(t *testing.T) {
	base := t.TempDir()
	s, err := store.Open(store.Config{Backend: store.BackendDisk, Dir: base})
	if err != nil {
		t.Fatal(err)
	}
	dir := s.(*store.DiskStore).Dir()
	s.Put([]byte("ephemeral"))
	if err := store.Release(s); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err == nil {
		t.Fatalf("Release kept ephemeral dir %s", dir)
	}

	s, err = store.Open(store.Config{Backend: store.BackendDisk, Dir: base, KeepFiles: true})
	if err != nil {
		t.Fatal(err)
	}
	dir = s.(*store.DiskStore).Dir()
	s.Put([]byte("kept"))
	if err := store.Release(s); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("Release removed KeepFiles dir %s: %v", dir, err)
	}
}
