package faultstore

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hash"
	"repro/internal/store"
)

// ErrInjected is the transient error every scheduled fault returns. It is
// always wrapped with the operation name; match with errors.Is.
var ErrInjected = errors.New("faultstore: injected transient fault")

// Config selects which faults a FaultStore injects. The zero value injects
// nothing: every operation forwards untouched. All *Every fields schedule
// counter-based faults — every Nth call to that operation fails — so the
// fault count for a given operation count is deterministic even under
// concurrency; 0 disables that family.
type Config struct {
	// Seed feeds the latency jitter; fault scheduling itself is
	// counter-based and seed-independent.
	Seed int64

	// GetFailEvery makes every Nth Get report a miss without consulting
	// the wrapped store.
	GetFailEvery int
	// PutFailEvery makes every Nth Put (single or within a batch) drop
	// the write: the digest is still returned, but nothing reaches the
	// wrapped store. The caller's retry/re-check discipline must catch it.
	PutFailEvery int
	// DeleteFailEvery makes every Nth Delete return ErrInjected.
	DeleteFailEvery int
	// SweepFailEvery makes every Nth Sweep return ErrInjected before
	// touching the wrapped store.
	SweepFailEvery int
	// MetaFailEvery makes every Nth SetMeta or GetMeta return ErrInjected.
	MetaFailEvery int
	// FlushFailEvery makes every Nth Flush return ErrInjected.
	FlushFailEvery int

	// NoSpace, unlike the counter faults, is a *persistent* condition:
	// while set, every write-path operation fails with an error wrapping
	// store.ErrNoSpace (Puts are dropped, Delete/SetMeta/Flush/Sweep error)
	// and reads keep working — the injected equivalent of a full disk.
	// Heal clears it. The WriteErr method exposes the same schedule as a
	// store.DiskOptions.WriteErr / ingest.Options.WriteErr hook, so the
	// disk store and the WAL degrade in lockstep with the wrapper.
	NoSpace bool

	// Delay, when positive, is slept before every DelayEvery-th forwarded
	// operation (every operation when DelayEvery <= 1), plus uniform
	// seeded jitter in [0, DelayJitter).
	Delay       time.Duration
	DelayJitter time.Duration
	DelayEvery  int

	// VerifyReads re-hashes every Get payload against its content address
	// and turns a mismatch into a miss (counted as a CorruptRead) — scrub
	// on read.
	VerifyReads bool
}

// Counters is a snapshot of the faults a FaultStore has injected.
type Counters struct {
	GetFaults    int64 // Gets turned into misses
	PutDrops     int64 // Puts silently dropped
	DeleteFaults int64 // Deletes failed with ErrInjected
	SweepFaults  int64 // Sweeps failed with ErrInjected
	MetaFaults   int64 // SetMeta/GetMeta failed with ErrInjected
	FlushFaults  int64 // Flushes failed with ErrInjected
	Delays       int64 // operations that slept
	CorruptReads int64 // VerifyReads mismatches served as misses
	NoSpaceHits  int64 // operations rejected by the persistent NoSpace mode
}

// CrashPanic is the value a fired crash point panics with. Tests recover it
// at the operation boundary (see Recovered) and then reopen or re-verify,
// simulating a process death at exactly the armed point.
type CrashPanic struct {
	// Point is the crash point that fired.
	Point string
}

// Error makes the panic value readable when it escapes a test harness.
func (c CrashPanic) Error() string { return fmt.Sprintf("faultstore: crash at %s", c.Point) }

// Recovered inspects a recover() result, returning the crash point when the
// panic was an armed FaultStore crash. Any other panic value reports false
// — re-panic those, they are real bugs.
func Recovered(r any) (string, bool) {
	if c, ok := r.(CrashPanic); ok {
		return c.Point, true
	}
	return "", false
}

// Named crash points of the wrapper itself, each firing immediately before
// the step it names. DiskStore's internal points (store.CrashPoints) can be
// armed on the same FaultStore via Hook.
const (
	// CrashPut fires before a single Put forwards.
	CrashPut = "fault.put"
	// CrashPutBatchMid fires halfway through forwarding a batch, leaving
	// the first half applied and the rest not — the torn-batch shape.
	CrashPutBatchMid = "fault.putbatch-mid"
	// CrashDelete fires before a Delete forwards.
	CrashDelete = "fault.delete"
	// CrashSweep fires before a Sweep forwards.
	CrashSweep = "fault.sweep"
	// CrashSetMeta fires before a SetMeta forwards.
	CrashSetMeta = "fault.setmeta"
)

// CrashPoints lists the wrapper's crash points in write-path order, for
// matrix tests that iterate them all.
func CrashPoints() []string {
	return []string{CrashPut, CrashPutBatchMid, CrashDelete, CrashSweep, CrashSetMeta}
}

// FaultStore wraps a store.Store and injects configured faults in front of
// every faulted operation. It embeds store.Wrapper, so it carries the full
// capability surface of the store contract; capabilities the wrapped store
// lacks report the store package's usual capability errors. Safe for
// concurrent use.
type FaultStore struct {
	store.Wrapper
	cfg atomic.Pointer[Config]

	// Per-operation arrival counters driving the *Every schedules.
	getN, putN, delN, sweepN, metaN, flushN, opN atomic.Int64

	ctr struct {
		get, put, del, sweep, meta, flush, delays, corrupt, nospace atomic.Int64
	}

	mu   sync.Mutex
	rng  *rand.Rand
	arms map[string]int // crash point → arrivals remaining before firing
}

// Wrap returns a FaultStore injecting cfg's faults in front of base.
func Wrap(base store.Store, cfg Config) *FaultStore {
	f := &FaultStore{
		Wrapper: store.NewWrapper(base),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		arms:    make(map[string]int),
	}
	f.cfg.Store(&cfg)
	return f
}

// Heal disables every transient-fault and latency schedule, including the
// persistent NoSpace mode (armed crash points stay armed). The two-phase
// tests use it: inject, observe the failure, heal, assert the retry leaves
// clean state.
func (f *FaultStore) Heal() {
	old := f.cfg.Load()
	f.cfg.Store(&Config{Seed: old.Seed, VerifyReads: old.VerifyReads})
}

// SetConfig replaces the fault schedule wholesale, mid-flight — the knob
// matrix tests turn to flip a healthy store into a degraded one (e.g.
// Config{NoSpace: true}) and back without rebuilding the wrapper. Arrival
// counters keep running; only the schedule changes.
func (f *FaultStore) SetConfig(cfg Config) {
	f.cfg.Store(&cfg)
}

// noSpace reports (and counts) a rejection under the persistent NoSpace
// mode, returning an error wrapping store.ErrNoSpace tagged with op.
func (f *FaultStore) noSpace(op string) error {
	f.ctr.nospace.Add(1)
	return fmt.Errorf("faultstore: %s: %w", op, store.ErrNoSpace)
}

// WriteErr is the degrade hook for store.DiskOptions.WriteErr and
// ingest.Options.WriteErr: it fails with store.ErrNoSpace while the
// persistent NoSpace mode is set and passes otherwise, so a DiskStore or
// WAL wired through it degrades and heals in lockstep with this wrapper.
// Like Hook, wire it through a pointer variable when the hooked component
// must be constructed before the wrapper.
func (f *FaultStore) WriteErr(op string) error {
	if !f.cfg.Load().NoSpace {
		return nil
	}
	return f.noSpace(op)
}

// Counters snapshots the injected-fault accounting.
func (f *FaultStore) Counters() Counters {
	return Counters{
		GetFaults:    f.ctr.get.Load(),
		PutDrops:     f.ctr.put.Load(),
		DeleteFaults: f.ctr.del.Load(),
		SweepFaults:  f.ctr.sweep.Load(),
		MetaFaults:   f.ctr.meta.Load(),
		FlushFaults:  f.ctr.flush.Load(),
		Delays:       f.ctr.delays.Load(),
		CorruptReads: f.ctr.corrupt.Load(),
		NoSpaceHits:  f.ctr.nospace.Load(),
	}
}

// ArmCrash makes the nth arrival (n >= 1) at the named crash point panic
// with CrashPanic. Arming a point replaces any earlier arming; n <= 0
// disarms it. Point names are free-form so DiskStore's internal points can
// be armed here too and routed in via Hook.
func (f *FaultStore) ArmCrash(point string, n int) {
	f.mu.Lock()
	if n <= 0 {
		delete(f.arms, point)
	} else {
		f.arms[point] = n
	}
	f.mu.Unlock()
}

// Hook is a DiskOptions.CrashHook adapter: route a DiskStore's internal
// crash points through this FaultStore's arming machinery, so one harness
// arms wrapper-level and disk-internal points uniformly. Because the disk
// store must exist before the wrapper can wrap it, capture the wrapper
// through a pointer variable:
//
//	var fs *faultstore.FaultStore
//	d, _ := store.OpenDiskStore(dir, store.DiskOptions{
//	    CrashHook: func(p string) { fs.Hook(p) },
//	})
//	fs = faultstore.Wrap(d, cfg)
func (f *FaultStore) Hook(point string) { f.hit(point) }

// hit fires the crash point if armed and due.
func (f *FaultStore) hit(point string) {
	f.mu.Lock()
	n, ok := f.arms[point]
	if !ok {
		f.mu.Unlock()
		return
	}
	n--
	if n > 0 {
		f.arms[point] = n
		f.mu.Unlock()
		return
	}
	delete(f.arms, point)
	f.mu.Unlock()
	panic(CrashPanic{Point: point})
}

// due advances an arrival counter and reports whether this arrival is
// scheduled to fault.
func due(n *atomic.Int64, every int) bool {
	if every <= 0 {
		return false
	}
	return n.Add(1)%int64(every) == 0
}

// delay sleeps the configured latency when this operation is scheduled for
// one.
func (f *FaultStore) delay() {
	cfg := f.cfg.Load()
	d := cfg.Delay
	if d <= 0 {
		return
	}
	every := cfg.DelayEvery
	if every <= 1 || f.opN.Add(1)%int64(every) == 0 {
		if j := cfg.DelayJitter; j > 0 {
			f.mu.Lock()
			d += time.Duration(f.rng.Int63n(int64(j)))
			f.mu.Unlock()
		}
		f.ctr.delays.Add(1)
		time.Sleep(d)
	}
}

// Put implements store.Store. A scheduled fault drops the write: the
// digest is returned but nothing reaches the wrapped store.
func (f *FaultStore) Put(data []byte) hash.Hash {
	f.delay()
	if f.cfg.Load().NoSpace {
		f.ctr.nospace.Add(1)
		return hash.Of(data)
	}
	if due(&f.putN, f.cfg.Load().PutFailEvery) {
		f.ctr.put.Add(1)
		return hash.Of(data)
	}
	f.hit(CrashPut)
	return f.Wrapper.Put(data)
}

// Get implements store.Store. A scheduled fault reports a miss; with
// VerifyReads set, payloads failing to re-hash to their address are
// reported as misses too.
func (f *FaultStore) Get(h hash.Hash) ([]byte, bool) {
	f.delay()
	if due(&f.getN, f.cfg.Load().GetFailEvery) {
		f.ctr.get.Add(1)
		return nil, false
	}
	data, ok := f.Wrapper.Get(h)
	if ok && f.cfg.Load().VerifyReads && hash.Of(data) != h {
		f.ctr.corrupt.Add(1)
		return nil, false
	}
	return data, ok
}

// PutBatch implements store.Batcher: items are hashed here, then follow
// the PutBatchHashed path so per-item drop scheduling applies uniformly.
func (f *FaultStore) PutBatch(items [][]byte) []hash.Hash {
	hs := hash.OfAll(items)
	f.PutBatchHashed(hs, items)
	return hs
}

// PutBatchHashed implements store.HashedBatcher. With no put faults
// configured the whole batch forwards as one batch (preserving the wrapped
// store's batch atomicity under its write barrier); with put faults
// configured, items forward one by one so each is a separate drop
// candidate. The CrashPutBatchMid point fires between the two halves of
// the batch either way.
func (f *FaultStore) PutBatchHashed(hashes []hash.Hash, items [][]byte) {
	f.delay()
	if len(items) == 0 {
		return
	}
	if f.cfg.Load().NoSpace {
		f.ctr.nospace.Add(int64(len(items)))
		return
	}
	crashAt := -1
	f.mu.Lock()
	if _, ok := f.arms[CrashPutBatchMid]; ok {
		crashAt = len(items) / 2
	}
	f.mu.Unlock()
	putEvery := f.cfg.Load().PutFailEvery
	if putEvery <= 0 && crashAt < 0 {
		f.Wrapper.PutBatchHashed(hashes, items)
		return
	}
	for i, data := range items {
		if i == crashAt {
			f.hit(CrashPutBatchMid)
		}
		if due(&f.putN, putEvery) {
			f.ctr.put.Add(1)
			continue
		}
		f.Wrapper.Put(data)
	}
}

// Delete implements store.Deleter.
func (f *FaultStore) Delete(h hash.Hash) (bool, error) {
	f.delay()
	if f.cfg.Load().NoSpace {
		return false, f.noSpace("delete")
	}
	if due(&f.delN, f.cfg.Load().DeleteFailEvery) {
		f.ctr.del.Add(1)
		return false, fmt.Errorf("delete: %w", ErrInjected)
	}
	f.hit(CrashDelete)
	return f.Wrapper.Delete(h)
}

// Sweep implements store.Sweeper. A scheduled fault fails before the
// wrapped store is touched, so the store's contents and accounting are
// exactly as if the sweep had never been attempted.
func (f *FaultStore) Sweep(live store.LiveFunc) (store.SweepStats, error) {
	f.delay()
	if f.cfg.Load().NoSpace {
		return store.SweepStats{}, f.noSpace("sweep")
	}
	if due(&f.sweepN, f.cfg.Load().SweepFailEvery) {
		f.ctr.sweep.Add(1)
		return store.SweepStats{}, fmt.Errorf("sweep: %w", ErrInjected)
	}
	f.hit(CrashSweep)
	return f.Wrapper.Sweep(live)
}

// SetMeta implements store.MetaStore.
func (f *FaultStore) SetMeta(key string, value []byte) error {
	f.delay()
	if f.cfg.Load().NoSpace {
		return f.noSpace("setmeta")
	}
	if due(&f.metaN, f.cfg.Load().MetaFailEvery) {
		f.ctr.meta.Add(1)
		return fmt.Errorf("setmeta: %w", ErrInjected)
	}
	f.hit(CrashSetMeta)
	return f.Wrapper.SetMeta(key, value)
}

// GetMeta implements store.MetaStore.
func (f *FaultStore) GetMeta(key string) ([]byte, bool, error) {
	f.delay()
	if due(&f.metaN, f.cfg.Load().MetaFailEvery) {
		f.ctr.meta.Add(1)
		return nil, false, fmt.Errorf("getmeta: %w", ErrInjected)
	}
	return f.Wrapper.GetMeta(key)
}

// Flush implements store.Flusher.
func (f *FaultStore) Flush() error {
	if f.cfg.Load().NoSpace {
		return f.noSpace("flush")
	}
	if due(&f.flushN, f.cfg.Load().FlushFailEvery) {
		f.ctr.flush.Add(1)
		return fmt.Errorf("flush: %w", ErrInjected)
	}
	return f.Wrapper.Flush()
}

// Compile-time checks: the wrapper carries the full capability surface.
var (
	_ store.Store         = (*FaultStore)(nil)
	_ store.HashedBatcher = (*FaultStore)(nil)
	_ store.Deleter       = (*FaultStore)(nil)
	_ store.Sweeper       = (*FaultStore)(nil)
	_ store.MetaStore     = (*FaultStore)(nil)
	_ store.BarrierStore  = (*FaultStore)(nil)
	_ store.Flusher       = (*FaultStore)(nil)
	_ io.Closer           = (*FaultStore)(nil)
)
