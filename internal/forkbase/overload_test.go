package forkbase

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/mpt"
	"repro/internal/postree"
	"repro/internal/secondary"
	"repro/internal/store"
	"repro/internal/version"
)

// startOwnedTableServlet is startTableServlet, but returns the servlet so
// tests can reach its internals (e.g. hold s.writeMu to simulate queueing).
func startOwnedTableServlet(t *testing.T) (*Servlet, string) {
	t.Helper()
	s := store.NewMemStore()
	repo := version.NewRepo(s)
	repo.RegisterLoader("MPT", func(s store.Store, root hash.Hash, _ int) (core.Index, error) {
		return mpt.Load(s, root), nil
	})
	tbl, err := secondary.Open(repo, "main", newMPT,
		secondary.Def{Attr: "city", Extract: cityOf, New: newMPT})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServletTable(tbl)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// checkNoGoroutineLeaks fails the test if the goroutine count has not
// settled back to (near) its starting level by the end of the test. Call it
// first; it snapshots the baseline and registers the check as a cleanup.
func checkNoGoroutineLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		// Connection handlers unwind asynchronously after Close returns;
		// give them a bounded grace period before declaring a leak.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutines leaked: %d at start, %d at end", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

func smallServlet(t *testing.T, n int, opts ServerOptions) (*Servlet, string, postree.Config) {
	t.Helper()
	cfg := postree.ConfigForNodeSize(256)
	idx, err := postree.Build(store.NewMemStore(), cfg, entriesN(n))
	if err != nil {
		t.Fatal(err)
	}
	srv := seededServlet(t, idx).WithOptions(opts)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, cfg
}

func TestServletCloseIsIdempotent(t *testing.T) {
	checkNoGoroutineLeaks(t)
	srv, addr, _ := smallServlet(t, 10, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	// Second and concurrent Closes must not double-close the listener,
	// re-close the drain channel, or panic.
	done := make(chan error, 2)
	go func() { done <- srv.Close() }()
	go func() { done <- srv.Close() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("repeat Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("repeat Close hung")
		}
	}
}

func TestServerShedsConnectionsOverLimit(t *testing.T) {
	checkNoGoroutineLeaks(t)
	_, addr, _ := smallServlet(t, 10, ServerOptions{MaxConns: 2})

	// Fill the two admission slots with parked connections.
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeMsg(conn, msgGetRoot, nil); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := readMsg(conn); err != nil || typ != msgRoot {
			t.Fatalf("conn %d getroot = %d, %v", i, typ, err)
		}
	}
	// The third dial is turned away with a retryable busy, then closed.
	over, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	_ = over.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := readMsg(over)
	if err != nil || typ != msgErrBusy {
		t.Fatalf("over-limit conn got %d (%q), %v; want msgErrBusy", typ, payload, err)
	}
	if _, _, err := readMsg(over); err == nil {
		t.Fatal("over-limit conn stayed open after the busy notice")
	}
}

func TestServerShedsInflightOverLimit(t *testing.T) {
	checkNoGoroutineLeaks(t)
	srv, addr, _ := smallServlet(t, 10, ServerOptions{MaxInflight: 1})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))

	// Occupy the single execution slot, as a stuck request would.
	srv.inflight <- struct{}{}
	if err := writeMsg(conn, msgGetRoot, nil); err != nil {
		t.Fatal(err)
	}
	typ, _, err := readMsg(conn)
	if err != nil || typ != msgErrBusy {
		t.Fatalf("request with slots full = %d, %v; want msgErrBusy", typ, err)
	}
	// Shedding keeps the connection: free the slot and the same conn works.
	<-srv.inflight
	if err := writeMsg(conn, msgGetRoot, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readMsg(conn); err != nil || typ != msgRoot {
		t.Fatalf("request after slot freed = %d, %v; want msgRoot", typ, err)
	}
}

func TestServerReapsIdleConnections(t *testing.T) {
	checkNoGoroutineLeaks(t)
	_, addr, _ := smallServlet(t, 10, ServerOptions{IdleTimeout: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The server must hang up on its own.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := readMsg(conn); err == nil {
		t.Fatal("idle connection was answered instead of reaped")
	}
}

func TestServerRejectsOversizedFrame(t *testing.T) {
	checkNoGoroutineLeaks(t)
	_, addr, _ := smallServlet(t, 10, ServerOptions{MaxFrameBytes: 1024})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	// A frame over the cap is rejected from its header alone — the payload
	// is never read, so it does not even need to be sent.
	if err := writeMsg(conn, msgGetRoot, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	typ, _, err := readMsg(conn)
	if err != nil || typ != msgErr {
		t.Fatalf("oversized frame = %d, %v; want msgErr", typ, err)
	}
	if _, _, err := readMsg(conn); err == nil {
		t.Fatal("connection survived an oversized frame")
	}
}

func TestServerAbortsCommitOverBudget(t *testing.T) {
	// The commit path re-checks the budget after acquiring s.writeMu, so
	// a request that spent its whole budget queueing behind another writer
	// aborts without touching the table. Holding s.writeMu from the test
	// is that queueing, made deterministic.
	checkNoGoroutineLeaks(t)
	tblSrv, tblAddr := startOwnedTableServlet(t)
	c2, err := net.Dial("tcp", tblAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_ = c2.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeMsg(c2, msgGetRoot, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readMsg(c2); err != nil || typ != msgRoot {
		t.Fatalf("warmup = %d, %v", typ, err)
	}

	tblSrv.writeMu.Lock()
	batch := encodeEntries([]core.Entry{{Key: []byte("pk-budget"), Value: []byte("c1|v")}})
	if err := writeMsg(c2, msgBudget, encodeBudget(20*time.Millisecond, msgPutBatch, batch)); err != nil {
		tblSrv.writeMu.Unlock()
		t.Fatal(err)
	}
	// The handler reads the frame, passes dispatch's entry check (budget
	// alive), and parks on s.writeMu in commit. Let the budget die,
	// then release: the post-lock check must fire.
	time.Sleep(60 * time.Millisecond)
	tblSrv.writeMu.Unlock()
	typ, payload, err := readMsg(c2)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgErrDeadline {
		t.Fatalf("budget-starved commit = %d (%q), want msgErrDeadline", typ, payload)
	}
	// The aborted commit left no partial state and the connection lives: a
	// budgeted retry of the same batch succeeds.
	if err := writeMsg(c2, msgBudget, encodeBudget(5*time.Second, msgPutBatch, batch)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readMsg(c2); err != nil || typ != msgRoot {
		t.Fatalf("retried commit = %d, %v, want msgRoot", typ, err)
	}
}

// fakeSource counts rows out of a fixed iteration space.
type fakeSource struct{ rows int }

func (f fakeSource) Get([]byte) ([]byte, bool, error) { return []byte("v"), true, nil }
func (f fakeSource) Range(lo, hi []byte, fn func(k, v []byte) bool) error {
	for i := 0; i < f.rows; i++ {
		if !fn([]byte{byte(i)}, []byte("v")) {
			return nil
		}
	}
	return nil
}

func TestBudgetSourceAbortsExpiredScan(t *testing.T) {
	expired := budgetSource{src: fakeSource{rows: 10000}, deadline: time.Now().Add(-time.Second)}
	seen := 0
	err := expired.Range(nil, nil, func(k, v []byte) bool { seen++; return true })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expired Range error = %v, want ErrBudgetExceeded", err)
	}
	if seen > budgetCheckRows {
		t.Fatalf("expired scan still visited %d rows", seen)
	}
	if _, _, err := expired.Get([]byte("k")); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expired Get error = %v, want ErrBudgetExceeded", err)
	}
	// A live deadline passes everything through.
	live := budgetSource{src: fakeSource{rows: 100}, deadline: time.Now().Add(time.Hour)}
	seen = 0
	if err := live.Range(nil, nil, func(k, v []byte) bool { seen++; return true }); err != nil || seen != 100 {
		t.Fatalf("live Range = %d rows, %v", seen, err)
	}
}

func TestDispatchRejectsExpiredBudget(t *testing.T) {
	checkNoGoroutineLeaks(t)
	srv, _, _ := smallServlet(t, 10, ServerOptions{})
	_, _, err := srv.dispatch(msgGetRoot, nil, time.Now().Add(-time.Millisecond))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("dispatch with dead budget = %v, want ErrBudgetExceeded", err)
	}
	// No budget (zero deadline) never expires.
	typ, _, err := srv.dispatch(msgGetRoot, nil, time.Time{})
	if err != nil || typ != msgRoot {
		t.Fatalf("dispatch without budget = %d, %v", typ, err)
	}
}

// busyServer answers every request msgErrBusy while busy is set, and
// serves a fixed root otherwise. It unwraps budget envelopes like the real
// servlet.
func busyServer(t *testing.T, busy *atomic.Bool, requests *atomic.Int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	root := hash.Of([]byte("busy-root"))
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					typ, payload, err := readMsg(conn)
					if err != nil {
						return
					}
					if typ == msgBudget {
						if _, typ, _, err = decodeBudget(payload); err != nil {
							return
						}
					}
					requests.Add(1)
					if busy.Load() {
						if writeMsg(conn, msgErrBusy, []byte("shed")) != nil {
							return
						}
						continue
					}
					if typ != msgGetRoot {
						writeMsg(conn, msgErr, []byte("unexpected"))
						return
					}
					if writeMsg(conn, msgRoot, encodeRoot(root, 1)) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// rawClient builds a client without the dial-time root fetch, so tests can
// drive roundTrip behavior call by call.
func rawClient(addr string, o Options) *Client {
	c := &Client{addr: addr, opts: o.withDefaults()}
	c.nodes = store.NewCachedStore(remoteStore{c: c}, 0)
	return c
}

func TestClientBreakerTripsFailsFastAndRecovers(t *testing.T) {
	var busy atomic.Bool
	var requests atomic.Int64
	busy.Store(true)
	addr := busyServer(t, &busy, &requests)

	cli := rawClient(addr, Options{
		Retries:          -1, // one attempt per call: sheds are countable
		RetryBase:        time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  150 * time.Millisecond,
	})
	defer cli.Close()

	// Calls 1 and 2: shed, retried error, breaker still closed.
	for i := 0; i < 2; i++ {
		err := cli.Refresh()
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("call %d error = %v, want ErrBusy", i, err)
		}
		if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("breaker tripped after only %d sheds", i+1)
		}
	}
	// Call 3 reaches the threshold: the breaker opens.
	if err := cli.Refresh(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("call 3 error = %v, want ErrCircuitOpen", err)
	}
	// While open: fail fast, no wire traffic.
	before := requests.Load()
	if err := cli.Refresh(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-breaker call = %v, want ErrCircuitOpen", err)
	}
	if requests.Load() != before {
		t.Fatal("open breaker still sent a request")
	}
	// Half-open probe against a still-busy server: one request, immediate
	// re-trip.
	time.Sleep(200 * time.Millisecond)
	before = requests.Load()
	if err := cli.Refresh(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open probe = %v, want immediate re-trip", err)
	}
	if got := requests.Load(); got != before+1 {
		t.Fatalf("half-open probe sent %d requests, want exactly 1", got-before)
	}
	// Server recovers; after the cooldown the probe succeeds and the
	// breaker resets fully.
	busy.Store(false)
	time.Sleep(200 * time.Millisecond)
	if err := cli.Refresh(); err != nil {
		t.Fatalf("post-recovery call: %v", err)
	}
	if cli.shedStreak != 0 {
		t.Fatalf("shed streak = %d after success, want 0", cli.shedStreak)
	}
}

func TestClientRetryExhaustionWrapsCause(t *testing.T) {
	// Busy exhaustion: the final error reaches the typed ErrBusy cause
	// through errors.Is, with the breaker disabled so exhaustion (not a
	// trip) ends the call.
	var busy atomic.Bool
	var requests atomic.Int64
	busy.Store(true)
	addr := busyServer(t, &busy, &requests)
	cli := rawClient(addr, Options{
		Retries:          2,
		RetryBase:        time.Millisecond,
		BreakerThreshold: -1,
	})
	defer cli.Close()
	err := cli.Refresh()
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("errors.Is(err, ErrBusy) = false for %v", err)
	}

	// Connection-level exhaustion: the last dial failure is reachable with
	// errors.As.
	ln, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		t.Fatal(lerr)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // nothing listens here anymore
	dead := rawClient(deadAddr, Options{Retries: 1, RetryBase: time.Millisecond})
	defer dead.Close()
	err = dead.Refresh()
	var opErr *net.OpError
	if !errors.As(err, &opErr) {
		t.Fatalf("errors.As(err, *net.OpError) = false for %v", err)
	}
}

func TestOptionsClampNonsenseValues(t *testing.T) {
	o := Options{
		Timeout:          -time.Second,
		Retries:          -7,
		RetryBase:        -time.Minute,
		BreakerThreshold: -3,
		BreakerCooldown:  -time.Hour,
	}.withDefaults()
	if o.Timeout != 5*time.Second {
		t.Fatalf("negative Timeout clamped to %v", o.Timeout)
	}
	if o.Retries != 0 {
		t.Fatalf("negative Retries clamped to %d, want 0 (disabled)", o.Retries)
	}
	if o.RetryBase != 5*time.Millisecond {
		t.Fatalf("negative RetryBase clamped to %v", o.RetryBase)
	}
	if o.BreakerThreshold != 0 {
		t.Fatalf("negative BreakerThreshold clamped to %d, want 0 (disabled)", o.BreakerThreshold)
	}
	if o.BreakerCooldown != 250*time.Millisecond {
		t.Fatalf("negative BreakerCooldown clamped to %v", o.BreakerCooldown)
	}

	so := ServerOptions{MaxConns: -1, MaxInflight: -1, IdleTimeout: -1, MaxFrameBytes: 1 << 40}.withDefaults()
	if so.MaxConns != -1 || so.MaxInflight != -1 || so.IdleTimeout != -1 {
		t.Fatalf("negative server limits must stay disabled: %+v", so)
	}
	if so.MaxFrameBytes != maxMessage {
		t.Fatalf("oversized MaxFrameBytes clamped to %d, want %d", so.MaxFrameBytes, maxMessage)
	}
}
