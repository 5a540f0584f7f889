package forkbase

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/version"
)

// ErrBusy reports that the server shed the request under overload (or a
// degraded store) without doing any work. Safe to retry with backoff; the
// client does so automatically within its retry budget.
var ErrBusy = errors.New("forkbase: server busy")

// ErrCircuitOpen reports that the client's circuit breaker is open: enough
// consecutive requests were shed that the client fails fast for a cooldown
// window instead of adding retry load to a server that is already drowning.
var ErrCircuitOpen = errors.New("forkbase: circuit breaker open")

// Loader rebuilds a read-only index view over a (remote) store from a root
// digest; each index class provides one as a closure over its config, e.g.
//
//	func(s store.Store, root hash.Hash, height int) core.Index {
//	    return postree.Load(s, cfg, root, height)
//	}
type Loader func(s store.Store, root hash.Hash, height int) core.Index

// Options configures a client's fault handling. The zero value picks the
// defaults below, so Options{} is a working configuration.
type Options struct {
	// Timeout bounds each round trip: the deadline is set on the
	// connection before every request so a hung server surfaces as an
	// error instead of a stuck client. Default 5s.
	Timeout time.Duration
	// Retries is how many additional attempts a round trip makes after a
	// transient failure — a connection error (redialed) or an explicit
	// msgErrRetry from the server. 0 means the default of 4; negative
	// disables retries. Default 4.
	Retries int
	// RetryBase is the backoff before the first retry; it doubles per
	// attempt (capped at 250ms) with up to 50% added jitter so clients
	// that failed together do not retry in lockstep. Default 5ms.
	RetryBase time.Duration
	// CacheBytes bounds the client node cache (0 disables caching, the
	// configuration used to isolate remote-access costs).
	CacheBytes int64
	// BreakerThreshold is how many consecutive busy sheds trip the circuit
	// breaker; once open, calls fail fast with ErrCircuitOpen until
	// BreakerCooldown passes, then one probe attempt half-opens it. 0 means
	// the default of 8; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// half-opening. Default 250ms.
	BreakerCooldown time.Duration
	// NoBudget stops the client from propagating its per-call deadline to
	// the server. With budgets on (the default), each request carries the
	// call's remaining time so the server can abort work the client will
	// never collect; NoBudget reproduces the legacy protocol, used as the
	// control arm in the overload experiment.
	NoBudget bool
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 4
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 5 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 8
	}
	if o.BreakerThreshold < 0 {
		o.BreakerThreshold = 0 // disabled
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 250 * time.Millisecond
	}
	return o
}

// retryCap bounds the client's exponential backoff between attempts.
const retryCap = 250 * time.Millisecond

// Client executes reads locally over network-fetched (and cached) nodes and
// ships writes to the servlet, mirroring Forkbase's client architecture:
// "Forkbase caches the nodes at clients after retrieved from servers"
// (§5.6.1).
//
// Every call runs under a deadline and transparently redials and retries on
// transient errors (see Options). Retrying a PutBatch after a torn
// connection is safe: applying the same entries to the already-advanced
// head produces the identical version — content addressing makes the write
// idempotent.
type Client struct {
	mu   sync.Mutex
	conn net.Conn // nil between a transient failure and the redial
	addr string
	opts Options

	loader Loader
	nodes  *store.CachedStore

	// Circuit breaker state, under c.mu. shedStreak counts consecutive
	// busy responses across calls; at BreakerThreshold the breaker opens
	// until breakerUntil.
	shedStreak   int
	breakerUntil time.Time

	root   hash.Hash
	height int
}

// remoteStore adapts the node-fetch RPC to the store.Store interface. Puts
// are not supported: all writes happen server-side.
type remoteStore struct {
	c *Client
}

func (r remoteStore) Put([]byte) hash.Hash { panic("forkbase: client-side Put") }
func (r remoteStore) Stats() store.Stats   { return store.Stats{} }

func (r remoteStore) Get(h hash.Hash) ([]byte, bool) {
	data, ok, err := r.c.fetchNode(h)
	if err != nil {
		return nil, false
	}
	return data, ok
}

func (r remoteStore) Has(h hash.Hash) bool {
	_, ok := r.Get(h)
	return ok
}

// Dial connects to a servlet with default fault handling. cacheBytes bounds
// the client node cache (see Options.CacheBytes).
func Dial(addr string, loader Loader, cacheBytes int64) (*Client, error) {
	return DialOptions(addr, loader, Options{CacheBytes: cacheBytes})
}

// DialOptions connects to a servlet. The initial root fetch already runs
// through the retry loop, so a server that is still coming up within the
// retry budget does not fail the dial.
func DialOptions(addr string, loader Loader, o Options) (*Client, error) {
	c := &Client{addr: addr, loader: loader, opts: o.withDefaults()}
	c.nodes = store.NewCachedStore(remoteStore{c: c}, o.CacheBytes)
	if err := c.Refresh(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// roundTrip sends one request and reads one response, retrying transient
// failures: connection errors drop and redial the connection; msgErrRetry,
// msgErrBusy, and msgErrDeadline responses keep it and just back off. msgErr
// is a permanent failure and returns immediately. Consecutive busy sheds
// trip the circuit breaker (see Options.BreakerThreshold); an open breaker
// fails fast with ErrCircuitOpen until its cooldown passes, then the next
// call half-opens it as a probe.
func (c *Client) roundTrip(typ byte, payload []byte) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.opts.BreakerThreshold > 0 && time.Now().Before(c.breakerUntil) {
		return 0, nil, fmt.Errorf("%w: cooling down until %s",
			ErrCircuitOpen, c.breakerUntil.Format(time.RFC3339Nano))
	}
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			version.SleepBackoff(attempt, c.opts.RetryBase, retryCap)
		}
		if c.conn == nil {
			conn, err := net.Dial("tcp", c.addr)
			if err != nil {
				lastErr = err
				continue
			}
			c.conn = conn
		}
		// The per-call deadline: nothing below can block past it. Unless
		// budget propagation is off, the request carries this attempt's
		// budget so the server can abort work we will never collect.
		_ = c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
		typWire, wire := typ, payload
		if !c.opts.NoBudget {
			typWire, wire = msgBudget, encodeBudget(c.opts.Timeout, typ, payload)
		}
		if err := writeMsg(c.conn, typWire, wire); err != nil {
			lastErr = err
			c.dropConnLocked()
			continue
		}
		rt, rp, err := readMsg(c.conn)
		if err != nil {
			lastErr = err
			c.dropConnLocked()
			continue
		}
		switch rt {
		case msgErr:
			return 0, nil, fmt.Errorf("forkbase: server: %s", rp)
		case msgErrRetry:
			lastErr = fmt.Errorf("forkbase: server (transient): %s", rp)
			continue
		case msgErrBusy:
			lastErr = fmt.Errorf("%w: %s", ErrBusy, rp)
			c.shedStreak++
			if c.opts.BreakerThreshold > 0 && c.shedStreak >= c.opts.BreakerThreshold {
				// Enough consecutive sheds: open the breaker and stop this
				// call's retries too — more attempts only feed the overload.
				// The streak is kept, so when the cooldown half-opens the
				// breaker, a shed probe re-trips immediately while a success
				// resets it fully.
				c.breakerUntil = time.Now().Add(c.opts.BreakerCooldown)
				return 0, nil, fmt.Errorf("%w after consecutive sheds: %w", ErrCircuitOpen, lastErr)
			}
			continue
		case msgErrDeadline:
			lastErr = fmt.Errorf("%w: server: %s", ErrBudgetExceeded, rp)
			continue
		}
		c.shedStreak = 0
		return rt, rp, nil
	}
	return 0, nil, fmt.Errorf("forkbase: request %d failed after %d attempts: %w",
		typ, c.opts.Retries+1, lastErr)
}

// dropConnLocked discards a connection a transient error poisoned; the next
// attempt redials. Caller holds c.mu.
func (c *Client) dropConnLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// fetchNode retrieves one node from the servlet. The request payload slices
// the digest directly — Hash.Bytes would allocate a copy per fetch on this
// hot path.
func (c *Client) fetchNode(h hash.Hash) ([]byte, bool, error) {
	typ, payload, err := c.roundTrip(msgGetNode, h[:])
	if err != nil {
		return nil, false, err
	}
	switch typ {
	case msgNode:
		return payload, true, nil
	case msgMissing:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("forkbase: unexpected response %d", typ)
	}
}

// Refresh re-reads the servlet's current root.
func (c *Client) Refresh() error {
	typ, payload, err := c.roundTrip(msgGetRoot, nil)
	if err != nil {
		return err
	}
	if typ != msgRoot {
		return fmt.Errorf("forkbase: unexpected response %d", typ)
	}
	root, height, err := decodeRoot(payload)
	if err != nil {
		return err
	}
	c.root, c.height = root, height
	return nil
}

// view materializes the read-only index over the cached remote store.
func (c *Client) view() core.Index {
	return c.loader(c.nodes, c.root, c.height)
}

// Get reads key through the client cache.
func (c *Client) Get(key []byte) ([]byte, bool, error) {
	return c.view().Get(key)
}

// PutBatch applies entries on the servlet and adopts the new root.
func (c *Client) PutBatch(entries []core.Entry) error {
	typ, payload, err := c.roundTrip(msgPutBatch, encodeEntries(entries))
	if err != nil {
		return err
	}
	if typ != msgRoot {
		return fmt.Errorf("forkbase: unexpected response %d", typ)
	}
	root, height, err := decodeRoot(payload)
	if err != nil {
		return err
	}
	c.root, c.height = root, height
	return nil
}

// Query ships one predicate to the servlet, which executes it
// server-side — through the table's secondary indexes when the servlet
// serves one — and returns the rows with the plan the server reports.
// Rows travel whole, so a narrow indexed query costs one round trip
// regardless of tree shape.
func (c *Client) Query(q query.Query) ([]query.Row, query.Plan, error) {
	typ, payload, err := c.roundTrip(msgQuery, encodeQuery(q))
	if err != nil {
		return nil, query.Plan{}, err
	}
	if typ != msgRows {
		return nil, query.Plan{}, fmt.Errorf("forkbase: unexpected response %d", typ)
	}
	return decodeRows(payload)
}

// Root returns the client's current root view.
func (c *Client) Root() (hash.Hash, int) { return c.root, c.height }

// CacheStats exposes local cache hits and misses.
func (c *Client) CacheStats() (hits, misses int64) { return c.nodes.CacheStats() }
