package forkbase

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/query"
	"repro/internal/secondary"
	"repro/internal/store"
	"repro/internal/version"
)

// ErrBudgetExceeded reports that the server aborted a request because the
// client's propagated per-call budget ran out mid-work: finishing would
// have burned CPU for an answer nobody was still waiting for. The wire
// carries it as msgErrDeadline; a retry gets a fresh budget.
var ErrBudgetExceeded = errors.New("forkbase: request budget exceeded")

// ServerOptions configures a Servlet's overload protection. The zero value
// selects the defaults noted per field, so ServerOptions{} is a working
// production-shaped configuration; negative values disable a limit.
type ServerOptions struct {
	// MaxConns bounds concurrently served connections. An accept over the
	// limit is answered with a retryable msgErrBusy and closed — admission
	// control, not queueing. 0 = default 256; negative = unlimited.
	MaxConns int
	// MaxInflight bounds requests executing at once across all
	// connections. A request arriving with every slot taken is shed with
	// msgErrBusy (the connection survives) instead of queueing — under
	// sustained overload queues only convert shed-able load into latency
	// collapse. 0 = default 64; negative = unlimited.
	MaxInflight int
	// IdleTimeout reaps connections that have not sent a request for this
	// long, bounding the cost of clients that dial and stall. 0 = default
	// 2 minutes; negative = never reap.
	IdleTimeout time.Duration
	// MaxFrameBytes caps a single request frame; an oversized frame is a
	// protocol error that drops the connection before the payload is read.
	// 0 (or anything over the protocol-wide 64 MiB bound) = that bound.
	MaxFrameBytes int
}

// Default ServerOptions limits.
const (
	defaultMaxConns    = 256
	defaultMaxInflight = 64
	defaultIdleTimeout = 2 * time.Minute
)

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxConns == 0 {
		o.MaxConns = defaultMaxConns
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = defaultMaxInflight
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = defaultIdleTimeout
	}
	if o.MaxFrameBytes <= 0 || o.MaxFrameBytes > maxMessage {
		o.MaxFrameBytes = maxMessage
	}
	return o
}

// Servlet serves one version.Repo branch: node fetches, root queries and
// planned queries read the branch head, and every write batch becomes a
// commit on the branch. One Servlet matches the paper's single-servlet
// setup.
//
// The repo branch is the only head. The servlet caches the table state of
// one commit for queries (so decoded-node caches stay warm between
// commits) and uses it only while that commit is still the branch head;
// otherwise it checks the head out again. Write batches serialize on a
// writer lock and commit through version.CommitRetryHead, each attempt
// derived only from the head it checked out and committed with that head
// as the expected parent (version.ErrHeadMoved), so a batch is never lost
// to a concurrent writer. An attempt that raced a GC pass is redone
// server-side from a fresh checkout; if the retry budget runs out the
// client gets msgErrRetry and resends.
type Servlet struct {
	ln   net.Listener
	opts ServerOptions
	// inflight is the request-execution semaphore (nil = unlimited): a
	// request that cannot take a slot without blocking is shed.
	inflight chan struct{}

	repo   *version.Repo
	branch string
	tbl    *secondary.Table // the table definition head states derive from

	// writeMu serializes write batches, so node fetches and queries never
	// wait behind a commit.
	writeMu sync.Mutex

	mu      sync.Mutex
	cur     *servedHead // cached head checkout; nil until first use
	conns   map[net.Conn]struct{}
	closing bool // set by the first Close; later Closes only wait

	wg     sync.WaitGroup
	closed chan struct{}
}

// servedHead is the table state one commit records.
type servedHead struct {
	c   version.Commit
	tbl *secondary.Table
}

// WithOptions replaces the servlet's overload-protection settings. Call it
// before Start; it returns s for chaining:
//
//	srv := forkbase.NewServletTable(tbl).WithOptions(forkbase.ServerOptions{MaxInflight: 8})
func (s *Servlet) WithOptions(o ServerOptions) *Servlet {
	s.opts = o.withDefaults()
	return s
}

// NewServletRepo returns a servlet whose head is the given branch of repo:
// every accepted write batch becomes a commit on that branch. The branch
// must already exist (seed it with an initial commit first).
func NewServletRepo(repo *version.Repo, branch string) (*Servlet, error) {
	// With no branch head there is nothing to serve, at start or later.
	tbl, err := secondary.Open(repo, branch, func(store.Store) (core.Index, error) {
		return nil, fmt.Errorf("%w: %q", version.ErrUnknownBranch, branch)
	})
	if err != nil {
		return nil, fmt.Errorf("forkbase: servlet branch: %w", err)
	}
	return NewServletTable(tbl), nil
}

// NewServletTable returns a servlet serving a secondary.Table's branch:
// every accepted write batch goes through the table (maintaining its
// secondary indexes) and co-commits all roots on the branch, and msgQuery
// requests route through the table's planner. The servlet derives every
// state it serves or writes from the branch head with tbl.At; tbl itself
// only supplies the definition and is never mutated. A resend after
// msgErrRetry is idempotent: content addressing makes reapplying the same
// entries converge.
func NewServletTable(tbl *secondary.Table) *Servlet {
	return &Servlet{
		opts:   ServerOptions{}.withDefaults(),
		repo:   tbl.Repo(),
		branch: tbl.Branch(),
		tbl:    tbl,
		conns:  make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves until Close. It returns the bound address.
func (s *Servlet) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("forkbase: listen: %w", err)
	}
	if s.opts.MaxInflight > 0 {
		s.inflight = make(chan struct{}, s.opts.MaxInflight)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close drains the servlet: it stops accepting, lets every in-flight
// request finish and its response flush, unblocks handlers parked waiting
// for a next request, and returns when all connection handlers have exited.
// Close is idempotent — concurrent or repeated calls all wait for the same
// drain; only the first closes the listener (and reports its error).
func (s *Servlet) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closing = true
	s.mu.Unlock()
	close(s.closed)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	// Expire pending reads so idle handlers notice the shutdown; handlers
	// mid-request are past the read and finish writing their response
	// before they check s.closed again.
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Head returns the primary index of the branch head, or nil when the head
// cannot be checked out.
func (s *Servlet) Head() core.Index {
	h, err := s.head()
	if err != nil {
		return nil
	}
	return h.tbl.Primary()
}

// head returns the table state of the branch head: the cached one while
// its commit is still the head, otherwise a fresh checkout, which becomes
// the cache unless a commit replaced it meanwhile.
func (s *Servlet) head() (*servedHead, error) {
	c, _ := s.repo.Head(s.branch)
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	if cur != nil && cur.c.ID == c.ID {
		return cur, nil
	}
	tbl, err := s.tbl.At(c)
	if err != nil {
		return nil, err
	}
	h := &servedHead{c: c, tbl: tbl}
	s.mu.Lock()
	if s.cur == cur {
		s.cur = h
	}
	s.mu.Unlock()
	return h, nil
}

func (s *Servlet) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				continue
			}
		}
		// Register before handling, under the same lock Close iterates, so
		// a conn is either drained by Close or rejected here — never left
		// parked in a read Close cannot see.
		s.mu.Lock()
		select {
		case <-s.closed:
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
			// Admission control: tell the dialer to back off and retry
			// rather than letting the conn set grow without bound. The
			// write deadline keeps a non-reading peer from parking the
			// accept loop.
			s.mu.Unlock()
			_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
			_ = writeMsg(conn, msgErrBusy, []byte("forkbase: connection limit reached"))
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.handleConn(conn)
		}()
	}
}

func (s *Servlet) handleConn(conn net.Conn) {
	for {
		select {
		case <-s.closed:
			return
		default:
		}
		typ, payload, err := s.serveOne(conn)
		if err != nil {
			select {
			case <-s.closed:
				return // drain interrupted the read; not a protocol error
			default:
			}
			if errors.Is(err, io.EOF) {
				return
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// Idle reap: the connection sat without a request past
				// IdleTimeout. Drop it silently — there is no request to
				// answer and a stalled peer is not reading anyway.
				return
			}
			if errors.Is(err, version.ErrCommitRaced) || errors.Is(err, version.ErrHeadMoved) {
				// Transient by contract: the commit lost to a concurrent GC
				// pass or another writer beyond the server-side retry
				// budget. Tell the client to resend and keep the connection.
				if writeMsg(conn, msgErrRetry, []byte(err.Error())) != nil {
					return
				}
				continue
			}
			if errors.Is(err, store.ErrNoSpace) {
				// Degraded store: writes are rejected but reads still work.
				// Busy (retryable) rather than permanent, and the connection
				// survives so reads keep flowing.
				if writeMsg(conn, msgErrBusy, []byte(err.Error())) != nil {
					return
				}
				continue
			}
			if errors.Is(err, ErrBudgetExceeded) {
				// The client's propagated budget ran out mid-work; it has
				// already timed out locally. Keep the connection for the
				// retry that carries a fresh budget.
				if writeMsg(conn, msgErrDeadline, []byte(err.Error())) != nil {
					return
				}
				continue
			}
			// Best effort error report, then drop the connection.
			_ = writeMsg(conn, msgErr, []byte(err.Error()))
			drainBeforeClose(conn)
			return
		}
		if err := writeMsg(conn, typ, payload); err != nil {
			return
		}
	}
}

// Bounds on the discard drainBeforeClose does before dropping a connection.
const (
	closeDrainBytes   = 1 << 20
	closeDrainTimeout = time.Second
)

// drainBeforeClose half-closes conn after its final error frame, then
// discards what the peer still sends (an oversized frame's unread payload)
// until EOF or a bound. Closing a socket with unread input makes the
// kernel answer with RST, which can destroy the error frame before the
// peer reads it; after the drain the close is a clean FIN. Close's read
// deadline cuts the drain short.
func drainBeforeClose(conn net.Conn) {
	hc, ok := conn.(interface{ CloseWrite() error })
	if !ok || hc.CloseWrite() != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Now().Add(closeDrainTimeout))
	_, _ = io.CopyN(io.Discard, conn, closeDrainBytes)
}

// serveOne reads one request, applies admission (frame cap, idle deadline,
// budget decode, load shedding), and computes the response.
func (s *Servlet) serveOne(conn net.Conn) (byte, []byte, error) {
	if s.opts.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
	typ, payload, err := readMsgLimit(conn, uint32(s.opts.MaxFrameBytes))
	if err != nil {
		return 0, nil, err
	}
	// A budget envelope fixes the request's deadline the moment it is read:
	// queueing delay downstream counts against the budget, as it should —
	// time spent waiting is time the client no longer has.
	var deadline time.Time
	if typ == msgBudget {
		budget, inner, innerPayload, err := decodeBudget(payload)
		if err != nil {
			return 0, nil, err
		}
		if budget > 0 {
			deadline = time.Now().Add(budget)
		}
		typ, payload = inner, innerPayload
	}
	if !s.acquireSlot() {
		// Every execution slot is busy: shed rather than queue. A queue
		// would only add latency until every admitted request times out —
		// the congestion-collapse mode the overload experiment measures.
		return msgErrBusy, []byte("forkbase: server overloaded, request shed"), nil
	}
	defer s.releaseSlot()
	return s.dispatch(typ, payload, deadline)
}

// acquireSlot takes an execution slot without blocking; false means shed.
func (s *Servlet) acquireSlot() bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Servlet) releaseSlot() {
	if s.inflight != nil {
		<-s.inflight
	}
}

// budgetExpired reports whether a request deadline has passed. The zero
// deadline (no budget propagated) never expires.
func budgetExpired(deadline time.Time) bool {
	return !deadline.IsZero() && time.Now().After(deadline)
}

// budgetCheckRows is how many rows a budget-bounded range scan emits
// between deadline checks: frequent enough to bound overshoot, cheap
// enough to not tax the scan.
const budgetCheckRows = 32

// budgetSource wraps a query source so scans abort once the request's
// propagated budget runs out, instead of burning server CPU on an answer
// the client has already given up on.
type budgetSource struct {
	src      query.Source
	deadline time.Time
}

func (b budgetSource) Get(key []byte) ([]byte, bool, error) {
	if budgetExpired(b.deadline) {
		return nil, false, fmt.Errorf("%w: during point lookup", ErrBudgetExceeded)
	}
	return b.src.Get(key)
}

func (b budgetSource) Range(lo, hi []byte, fn func(key, value []byte) bool) error {
	rows, expired := 0, false
	err := b.src.Range(lo, hi, func(key, value []byte) bool {
		if rows%budgetCheckRows == 0 && budgetExpired(b.deadline) {
			expired = true
			return false
		}
		rows++
		return fn(key, value)
	})
	if err != nil {
		return err
	}
	if expired {
		return fmt.Errorf("%w: after %d rows scanned", ErrBudgetExceeded, rows)
	}
	return nil
}

// dispatch executes one decoded request against the head.
func (s *Servlet) dispatch(typ byte, payload []byte, deadline time.Time) (byte, []byte, error) {
	if budgetExpired(deadline) {
		return 0, nil, fmt.Errorf("%w: expired before dispatch", ErrBudgetExceeded)
	}
	switch typ {
	case msgGetNode:
		h, err := hash.FromBytes(payload)
		if err != nil {
			return 0, nil, err
		}
		data, ok := s.repo.Store().Get(h)
		if !ok {
			return msgMissing, nil, nil
		}
		return msgNode, data, nil

	case msgPutBatch:
		entries, err := decodeEntries(payload)
		if err != nil {
			return 0, nil, err
		}
		return s.commit(entries, deadline)

	case msgGetRoot:
		c, _ := s.repo.Head(s.branch)
		return msgRoot, encodeRoot(c.Root, c.Height), nil

	case msgQuery:
		q, err := decodeQuery(payload)
		if err != nil {
			return 0, nil, err
		}
		// The head state binds immutable index versions, so a concurrent
		// write batch advances the branch without disturbing this query.
		// With a propagated budget, wrap the source so long scans abort
		// when the client's remaining time runs out.
		h, err := s.head()
		if err != nil {
			return 0, nil, err
		}
		var src query.Source = query.IndexSource(h.tbl.Primary())
		if !deadline.IsZero() {
			src = budgetSource{src: src, deadline: deadline}
		}
		rows, plan, err := query.PlannerFor(src, h.tbl).Query(q)
		if err != nil {
			return 0, nil, err
		}
		return msgRows, encodeRows(rows, plan), nil

	default:
		return 0, nil, fmt.Errorf("forkbase: unknown request type %d", typ)
	}
}

// commit applies one write batch as a commit on the servlet's branch,
// through the table so every secondary stays consistent. Each attempt of
// the CommitRetryHead loop derives the successor from a fresh checkout of
// the head it observed, never from the cache: a retry after a GC race
// must not build on decoded nodes of swept pages, and a fresh checkout
// per commit keeps the decoded-node caches from growing across commits.
// The committed state becomes the cache. If the loop gives up, the raced
// or moved error propagates and handleConn maps it to msgErrRetry.
func (s *Servlet) commit(entries []core.Entry, deadline time.Time) (byte, []byte, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	var next *secondary.Table
	c, err := version.CommitRetryHead(s.repo, s.branch,
		fmt.Sprintf("forkbase: put %d entries", len(entries)),
		func(head version.Commit) (core.Index, []byte, error) {
			// The first attempt runs right after the wait for writeMu, a
			// retry after a backoff; either may have burned the budget.
			// Nothing is applied yet, so aborting here is clean.
			if budgetExpired(deadline) {
				return nil, nil, fmt.Errorf("%w: before applying write batch", ErrBudgetExceeded)
			}
			tbl, err := s.tbl.At(head)
			if err != nil {
				return nil, nil, err
			}
			if err := tbl.PutBatch(entries); err != nil {
				return nil, nil, err
			}
			next = tbl
			return tbl.Primary(), version.EncodeRootRefs(tbl.RootRefs()), nil
		})
	if err != nil {
		return 0, nil, err
	}
	s.mu.Lock()
	s.cur = &servedHead{c: c, tbl: next}
	s.mu.Unlock()
	return msgRoot, encodeRoot(c.Root, c.Height), nil
}
