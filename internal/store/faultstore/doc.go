// Package faultstore wraps any store.Store in a seeded, deterministic
// fault injector, so the rest of the system — the conformance suite, the
// version layer's crash-consistency matrix, the GC soak — can be exercised
// under the failures a real deployment sees: transient IO errors, latency
// spikes, dropped writes, and crashes at named points of the write path.
//
// # Design
//
// FaultStore embeds store.Wrapper, which forwards every optional
// capability of the store contract (Batcher, HashedBatcher, Deleter,
// Sweeper, MetaStore, BarrierStore, Flusher, io.Closer, DiskUsage) to the
// wrapped store, and overrides the operations it faults with a fault
// decision in front of the forwarding call. Fault scheduling is
// counter-based — "every Nth call to this operation fails" — rather than
// probabilistic, because counters stay deterministic even when the suite
// runs operations concurrently: N calls produce exactly N/k injected
// faults, every run. The seed feeds only the latency jitter.
//
// Three fault families:
//
//   - Transient errors: a scheduled Get reports a miss; a scheduled
//     Delete/Sweep/SetMeta/GetMeta/Flush returns ErrInjected without
//     touching the wrapped store; a scheduled Put is silently dropped
//     (the store interface gives Put no error return — a dropped write is
//     exactly how that failure manifests, and the caller's retry or root
//     re-check must catch it). Nothing is half-applied: an injected fault
//     never forwards, so a retry observes clean state.
//   - Latency: every scheduled operation sleeps Delay plus seeded jitter
//     before forwarding, for soak tests that need interleavings a fast
//     in-memory store never produces.
//   - Crash points: ArmCrash(point, n) makes the nth arrival at a named
//     point panic with CrashPanic. The panic unwinds through the store's
//     deferred unlocks like a real crash unwinds nothing at all — tests
//     recover it at the operation boundary, then reopen or re-verify.
//     The wrapper's own points (CrashPoints) cover the capability
//     surface; DiskStore's internal points (store.CrashPoints, fired via
//     DiskOptions.CrashHook) can be routed into the same arming machinery
//     through the Hook method.
//
// Barrier and Has calls are not overridden, so they forward
// unconditionally: they are the concurrent-GC correctness machinery (Has is
// the commit gate's race detector), and injecting faults there would not
// simulate an IO failure, it would simulate a broken algorithm.
//
// # Verify-on-read scrubbing
//
// With Config.VerifyReads set, every Get re-hashes the returned payload
// against its content address and treats a mismatch as a miss (counted in
// Counters.CorruptReads) — the read-path half of the scrub story, whose
// foreground cost the bench "faults" experiment measures. The content
// address doubling as a checksum is the paper's tamper-evidence property
// doing operational work.
package faultstore
