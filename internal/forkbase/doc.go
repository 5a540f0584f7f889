// Package forkbase implements a miniature version of the client/server
// storage engine used in the paper's system experiments (§5.6): a single
// servlet serving one version.Repo branch over a content-addressed store,
// and clients that execute reads by fetching nodes over the network
// (caching them locally, as Forkbase does) while writes are shipped to the
// servlet and committed there.
//
// # Wire protocol
//
// The protocol is deliberately small: length-prefixed binary messages
// carrying node fetches, batched writes, and root queries. Any core.Index
// implementation can be served, which is how the Forkbase (POS-Tree) versus
// Noms (Prolly Tree) comparison of §5.6.2 is run on identical plumbing.
// Errors come in four flavors: msgErr is permanent and fails the request;
// msgErrRetry marks a transient server-side condition (a commit raced a GC
// pass or another writer past the server's own retry budget) the client
// resends after;
// msgErrBusy means the server shed the request under overload (or refused
// a write on a space-degraded store) without doing any work; msgErrDeadline
// means the server aborted the request because its propagated budget ran
// out. All but msgErr keep the connection. Requests may be wrapped in a
// msgBudget envelope carrying the client's remaining per-call time; servers
// that predate the envelope never see it (clients can disable it with
// Options.NoBudget), and servers accept bare requests unchanged, so the
// extension is backward compatible in both directions.
//
// # Overload protection
//
// ServerOptions bounds every axis on which an overloaded or hostile peer
// could otherwise grow server state without limit: MaxConns (admission —
// an accept over the limit is answered msgErrBusy and closed), MaxInflight
// (execution — a request with no free slot is shed with msgErrBusy, the
// connection kept), IdleTimeout (conns that dial and stall are reaped) and
// MaxFrameBytes (an oversized frame is rejected before its payload is
// read; the error frame is followed by a half-close and a bounded drain,
// so the peer reads the error rather than a reset). Shedding is deliberate: under sustained overload a queue only
// converts shed-able load into latency until every admitted request times
// out — the congestion collapse the bench package's "overload" experiment
// measures, comparing goodput and p99 with the limits on versus off.
//
// # Deadline propagation
//
// Clients wrap each request in a msgBudget envelope carrying the call's
// remaining time. The server fixes the deadline when it reads the frame —
// so queueing counts against the budget — and aborts work the client will
// never collect: before dispatch, before applying a write batch it had to
// wait to start, and every budgetCheckRows rows inside a range scan. The
// abort surfaces as msgErrDeadline (ErrBudgetExceeded) and a retry carries
// a fresh budget.
//
// # Fault handling
//
// Every client call runs under a per-round-trip deadline and retries
// transient failures with capped exponential backoff and jitter — torn
// connections are redialed, msgErrRetry responses resent (Options tunes
// all three knobs). Enough consecutive msgErrBusy sheds trip a client-side
// circuit breaker: calls fail fast with ErrCircuitOpen for a cooldown
// instead of feeding retries to a server that is already drowning, then a
// single probe half-opens it — a shed probe re-trips immediately, a
// success closes it (Options.BreakerThreshold/BreakerCooldown). Resending
// a write batch is safe: applying the same
// entries to the already-advanced head yields the identical version, so
// the retry is idempotent by content addressing. Close drains in-flight
// requests before returning.
//
// # One head, one write path
//
// The repo branch is the servlet's only head. NewServletRepo serves a
// plain branch; NewServletTable serves a secondary.Table's branch and
// maintains its secondaries. Either way every accepted batch goes through
// the table (with no secondaries for a plain branch, where the commit is
// byte-identical to a plain Repo.Commit) and becomes one commit, made by
// version.CommitRetryHead: each attempt derives the successor only from
// the head commit it checked out (re-deriving the secondaries from that
// commit's RootRefs) and commits with that head as the expected parent.
// If another writer moved the branch meanwhile the commit fails with
// version.ErrHeadMoved; if a GC pass swept the attempt's fresh nodes it
// fails with version.ErrCommitRaced. Both are redone server-side from a
// fresh checkout, so an acked write is never lost and never built on
// swept pages. Writes serialize on a writer lock that node fetches and
// queries never take. The servlet caches the committed state for queries,
// so decoded nodes stay warm between commits, and uses it only while its
// commit is still the branch head.
//
// # Roles in the larger system
//
// The servlet is the write authority: it commits batches with the staged
// commit path and advances the branch head, which clients poll with root
// queries and Load into read-only views via a Loader (the same
// class-keyed reconstruction closure internal/version uses for checkout —
// the two Loader types mirror each other deliberately). Client-side
// CachedStore layers never need invalidation because nodes are immutable
// and content-addressed.
//
// Garbage collection (internal/version) runs concurrently with the
// servlet's local traffic — the write barrier and commit gate make a pass
// safe against in-flight batches without pausing the servlet. The remote
// side is the open part: clients hold no lease on the nodes they cache,
// so a remote GC protocol — sweeping the servlet's store while clients
// keep reading — needs a liveness handshake (the reader-pin machinery is
// the natural local anchor for it) and is tracked as a ROADMAP open item
// rather than implemented here.
package forkbase
