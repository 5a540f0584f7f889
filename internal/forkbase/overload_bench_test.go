package forkbase

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/postree"
	"repro/internal/store"
)

// BenchmarkOverloadGoodput drives an oversubscribed closed-loop writer
// fleet (8× GOMAXPROCS workers) against one servlet and reports goodput —
// successful, budget-respecting ops per second — with load shedding on
// (MaxInflight bounds admitted work) versus off (everything queues on the
// commit path). The benchstat comparison to watch: the shed-on goodput/s
// must hold up while shed-off decays as queued requests outlive their
// budget. The full sweep with offered-load multipliers is the bench
// package's "overload" experiment.
func BenchmarkOverloadGoodput(b *testing.B) {
	for _, c := range []struct {
		name     string
		inflight int
	}{
		{"shed-on", 4},
		{"shed-off", -1},
	} {
		b.Run(c.name, func(b *testing.B) {
			const records = 500
			cfg := postree.ConfigForNodeSize(512)
			s := store.NewMemStore()
			idx, err := postree.Build(s, cfg, entriesN(records))
			if err != nil {
				b.Fatal(err)
			}
			srv := seededServlet(b, idx).WithOptions(ServerOptions{
				MaxConns:    -1,
				MaxInflight: c.inflight,
			})
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			opts := Options{
				Timeout:          100 * time.Millisecond,
				Retries:          -1, // one attempt per op: a failure is the datum
				BreakerThreshold: -1, // keep offering load; the server is under test
			}

			var succ, next atomic.Int64
			b.SetParallelism(8)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				cli, err := DialOptions(addr, posLoader(cfg), opts)
				if err != nil {
					b.Error(err)
					return
				}
				defer cli.Close()
				for pb.Next() {
					base := int(next.Add(4))
					batch := make([]core.Entry, 4)
					for j := range batch {
						id := (base + j) % records
						batch[j] = core.Entry{
							Key:   []byte(fmt.Sprintf("key-%05d", id)),
							Value: []byte(fmt.Sprintf("value-%05d-%d", id, base)),
						}
					}
					if err := cli.PutBatch(batch); err == nil {
						succ.Add(1)
					} else if errors.Is(err, ErrBusy) {
						// Back off a shed so the fast-fail loop does not
						// starve admitted requests of CPU.
						time.Sleep(50 * time.Microsecond)
					}
				}
			})
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(succ.Load())/sec, "goodput/s")
			}
			b.ReportMetric(float64(succ.Load())/float64(b.N), "success/op")
		})
	}
}
