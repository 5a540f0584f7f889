package store_test

import (
	"io"
	"testing"

	"repro/internal/store"
	"repro/internal/store/faultstore"
)

// capabilities lists the optional store interfaces some layer of the
// system probes for. A wrapper that drops one silently switches its caller
// onto a fallback path: a repo without MetaStore stops persisting heads, a
// GC without BarrierStore stops the world, a retention run without
// DiskUsage reports no reclaimed bytes.
var capabilities = []struct {
	name string
	has  func(store.Store) bool
}{
	{"Batcher", func(s store.Store) bool { _, ok := s.(store.Batcher); return ok }},
	{"HashedBatcher", func(s store.Store) bool { _, ok := s.(store.HashedBatcher); return ok }},
	{"Deleter", func(s store.Store) bool { _, ok := s.(store.Deleter); return ok }},
	{"Sweeper", func(s store.Store) bool { _, ok := s.(store.Sweeper); return ok }},
	{"MetaStore", func(s store.Store) bool { _, ok := s.(store.MetaStore); return ok }},
	{"Flusher", func(s store.Store) bool { _, ok := s.(store.Flusher); return ok }},
	{"BarrierStore", func(s store.Store) bool { _, ok := s.(store.BarrierStore); return ok }},
	{"io.Closer", func(s store.Store) bool { _, ok := s.(io.Closer); return ok }},
	{"DiskUsage", func(s store.Store) bool { _, ok := s.(interface{ DiskUsage() (int64, error) }); return ok }},
}

// TestWrappersKeepCapabilities checks that every wrapper, over every
// backend, offers each optional capability the wrapped store has, and
// that DiskUsageOf reports the same footprint through the wrapper as on
// the wrapped store.
func TestWrappersKeepCapabilities(t *testing.T) {
	inners := []struct {
		name string
		new  func(t *testing.T) store.Store
	}{
		{"mem", func(t *testing.T) store.Store { return store.NewMemStore() }},
		{"disk", func(t *testing.T) store.Store {
			d, err := store.OpenDiskStore(t.TempDir(), store.DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}},
	}
	wrappers := []struct {
		name string
		wrap func(store.Store) store.Store
	}{
		{"CountingStore", func(s store.Store) store.Store { return store.NewCountingStore(s) }},
		{"CachedStore", func(s store.Store) store.Store { return store.NewCachedStore(s, 1<<16) }},
		{"FaultStore", func(s store.Store) store.Store { return faultstore.Wrap(s, faultstore.Config{}) }},
		{"FaultStoreOverCountingStore", func(s store.Store) store.Store {
			return faultstore.Wrap(store.NewCountingStore(s), faultstore.Config{})
		}},
	}
	for _, w := range wrappers {
		for _, in := range inners {
			t.Run(w.name+"/"+in.name, func(t *testing.T) {
				inner := in.new(t)
				inner.Put([]byte("resident node"))
				wrapped := w.wrap(inner)
				for _, c := range capabilities {
					if c.has(inner) && !c.has(wrapped) {
						t.Errorf("%T over %T drops %s", wrapped, inner, c.name)
					}
				}
				want, wantOK := store.DiskUsageOf(inner)
				if got, ok := store.DiskUsageOf(wrapped); got != want || ok != wantOK {
					t.Errorf("DiskUsageOf(wrapper) = %d, %v; wrapped store reports %d, %v", got, ok, want, wantOK)
				}
			})
		}
	}
}
