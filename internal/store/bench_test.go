package store_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/hash"
	"repro/internal/store"
)

// benchBackends pairs every backend with a constructor for the concurrent
// throughput comparison. How the lock-striped MemStore and the DiskStore
// scale under parallel Put/Get is the point of these benchmarks:
//
//	go test ./internal/store -bench 'Parallel' -cpu 1,4,8
func benchBackends(b *testing.B) []struct {
	name string
	new  func() store.Store
} {
	return []struct {
		name string
		new  func() store.Store
	}{
		{"mem", func() store.Store { return store.NewMemStore() }},
		{"disk", func() store.Store {
			d, err := store.OpenDiskStore(b.TempDir(), store.DiskOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return d
		}},
	}
}

// benchPayloads generates n distinct ~1KB node payloads (the paper's tuned
// node size).
func benchPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 1024)
		copy(p, fmt.Sprintf("payload-%08d", i))
		out[i] = p
	}
	return out
}

func BenchmarkStorePutParallel(b *testing.B) {
	payloads := benchPayloads(4096)
	for _, backend := range benchBackends(b) {
		b.Run(backend.name, func(b *testing.B) {
			s := backend.new()
			defer store.Release(s)
			var next atomic.Int64
			b.SetBytes(1024)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					s.Put(payloads[int(i)%len(payloads)])
				}
			})
		})
	}
}

func BenchmarkStoreGetParallel(b *testing.B) {
	payloads := benchPayloads(4096)
	for _, backend := range benchBackends(b) {
		b.Run(backend.name, func(b *testing.B) {
			s := backend.new()
			defer store.Release(s)
			hs := make([]hash.Hash, len(payloads))
			for i, p := range payloads {
				hs[i] = s.Put(p)
			}
			if d, ok := s.(*store.DiskStore); ok {
				if err := d.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Int64
			b.SetBytes(1024)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					if _, ok := s.Get(hs[int(i)%len(hs)]); !ok {
						b.Error("miss on resident node")
						return
					}
				}
			})
		})
	}
}

// BenchmarkStoreMixedParallel is the index-update shape: mostly reads with
// a stream of fresh writes mixed in.
func BenchmarkStoreMixedParallel(b *testing.B) {
	payloads := benchPayloads(4096)
	for _, backend := range benchBackends(b) {
		b.Run(backend.name, func(b *testing.B) {
			s := backend.new()
			defer store.Release(s)
			hs := make([]hash.Hash, len(payloads))
			for i, p := range payloads {
				hs[i] = s.Put(p)
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					if i%10 == 0 {
						s.Put(payloads[int(i)%len(payloads)])
					} else if _, ok := s.Get(hs[int(i)%len(hs)]); !ok {
						b.Error("miss on resident node")
						return
					}
				}
			})
		})
	}
}

// BenchmarkStorePutGet is the single-threaded write-then-read shape of an
// index commit followed by lookups, comparing the sequential Put loop with
// the PutBatch path on every backend. This is the smoke benchmark CI runs
// through benchstat on every PR.
func BenchmarkStorePutGet(b *testing.B) {
	payloads := benchPayloads(1024)
	for _, backend := range benchBackends(b) {
		for _, mode := range []string{"put", "putbatch"} {
			b.Run(backend.name+"/"+mode, func(b *testing.B) {
				b.SetBytes(int64(len(payloads)) * 1024)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s := backend.new()
					b.StartTimer()
					var hs []hash.Hash
					if mode == "putbatch" {
						hs = store.PutBatch(s, payloads)
					} else {
						hs = make([]hash.Hash, len(payloads))
						for j, p := range payloads {
							hs[j] = s.Put(p)
						}
					}
					for _, h := range hs {
						if _, ok := s.Get(h); !ok {
							b.Fatal("miss on resident node")
						}
					}
					b.StopTimer()
					store.Release(s)
					b.StartTimer()
				}
			})
		}
	}
}
