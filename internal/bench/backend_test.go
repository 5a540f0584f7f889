package bench

import (
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// TestFig14AcrossBackends runs a storage figure end-to-end against every
// store backend — the same matrix cmd/siribench exposes via -store — and
// checks the figures are backend-independent: the deduplicated footprint a
// table reports must not depend on where the nodes live.
func TestFig14AcrossBackends(t *testing.T) {
	var baseline []*Table
	for _, backend := range store.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			sc := tinyScale()
			sc.Store = StoreConfig{Backend: backend, Dir: t.TempDir()}
			tables, err := Fig14(sc)
			if err != nil {
				t.Fatalf("fig14 with -store=%s: %v", backend, err)
			}
			if len(tables) != 2 || len(tables[0].Rows) == 0 {
				t.Fatalf("fig14 with -store=%s produced %d tables", backend, len(tables))
			}
			if baseline == nil {
				baseline = tables
				return
			}
			for ti, tb := range tables {
				for ri, r := range tb.Rows {
					for ci, c := range r.Cells {
						if want := baseline[ti].Rows[ri].Cells[ci]; c != want {
							t.Errorf("%s row %s col %s: %s backend reports %s, mem reports %s",
								tb.ID, r.X, tb.Columns[ci], backend, c, want)
						}
					}
				}
			}
		})
	}
}

// TestFig21DiskBackend drives the full Forkbase client/server path with
// disk-backed servlet storage and a small client cache.
func TestFig21DiskBackend(t *testing.T) {
	sc := tinyScale()
	sc.YCSBCounts = sc.YCSBCounts[:1]
	sc.Store = StoreConfig{Backend: store.BackendDisk, Dir: t.TempDir()}
	sc.ClientCacheBytes = 1 << 20
	tables, err := Fig21(sc)
	if err != nil {
		t.Fatalf("fig21 with -store=disk: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig21 produced %d tables", len(tables))
	}
}

// TestFig14CachedShardedBackend exercises the cache layering the -cache
// flag selects, over the (lock-striped) in-memory backend.
func TestFig14CachedShardedBackend(t *testing.T) {
	sc := tinyScale()
	sc.Store = StoreConfig{Backend: store.BackendMem, CacheBytes: 1 << 20}
	if _, err := Fig14(sc); err != nil {
		t.Fatalf("fig14 with mem+cache: %v", err)
	}
}

// TestTrackedExperimentsReleaseDiskStores runs a figure that takes no
// per-cell release (fig15) through the registry wrapper with a disk
// backend and checks no segment directories survive the run.
func TestTrackedExperimentsReleaseDiskStores(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScale()
	sc.Store = StoreConfig{Backend: store.BackendDisk, Dir: dir}
	exp, err := ByName("fig15")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(sc); err != nil {
		t.Fatal(err)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "sirstore-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("experiment leaked %d store directories: %v", len(leftovers), leftovers)
	}
}

func TestNewStoreRejectsUnknownBackend(t *testing.T) {
	sc := tinyScale()
	sc.Store = StoreConfig{Backend: "bogus"}
	if _, err := sc.NewStore(); err == nil {
		t.Fatal("unknown backend accepted")
	}
}
