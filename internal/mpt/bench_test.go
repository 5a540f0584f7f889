package mpt_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mpt"
	"repro/internal/store"
)

// BenchmarkBatchCommit compares the staged batch commit path against the
// sequential insert loop it replaced, per store backend. One iteration
// loads a full batch into a fresh trie; the staged path persists only the
// final version's nodes in one flush, the sequential path persists every
// intermediate version's nodes one Put at a time.
func BenchmarkBatchCommit(b *testing.B) {
	const batch = 4000 // the paper's default write batch size
	entries := make([]core.Entry, batch)
	for i := range entries {
		entries[i] = core.Entry{
			Key:   []byte(fmt.Sprintf("user%07d", i*2654435761%batch)),
			Value: []byte(fmt.Sprintf("value-%d", i)),
		}
	}
	backends := []struct {
		name string
		new  func() store.Store
	}{
		{"mem", func() store.Store { return store.NewMemStore() }},
	}
	for _, backend := range backends {
		b.Run("staged/"+backend.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mpt.New(backend.new()).PutBatch(entries); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("sequential/"+backend.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var idx core.Index = mpt.New(backend.new())
				var err error
				for _, e := range entries {
					if idx, err = idx.Put(e.Key, e.Value); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
