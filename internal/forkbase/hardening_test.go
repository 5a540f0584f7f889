package forkbase

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/postree"
	"repro/internal/store"
	"repro/internal/version"
)

// flakyProxy forwards TCP to target, but kills the first kill connections
// immediately on accept — the shape of a server restart or a dropped link.
func flakyProxy(t *testing.T, target string, kill int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var n atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if n.Add(1) <= int64(kill) {
				conn.Close()
				continue
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				conn.Close()
				continue
			}
			go func() { defer up.Close(); defer conn.Close(); io.Copy(up, conn) }()
			go func() { io.Copy(conn, up) }()
		}
	}()
	return ln.Addr().String()
}

func TestClientRedialsAfterConnectionDrop(t *testing.T) {
	cfg := postree.ConfigForNodeSize(256)
	idx, err := postree.Build(store.NewMemStore(), cfg, entriesN(200))
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServlet(t, idx)
	proxy := flakyProxy(t, addr, 2)

	// The dial's initial root fetch itself rides the retry loop: the first
	// two connections die on arrival.
	cli, err := DialOptions(proxy, posLoader(cfg), Options{
		RetryBase:  time.Millisecond,
		CacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatalf("dial through flaky proxy: %v", err)
	}
	defer cli.Close()
	v, ok, err := cli.Get([]byte("key-00123"))
	if err != nil || !ok || string(v) != "value-00123" {
		t.Fatalf("Get through recovered connection = %q, %v, %v", v, ok, err)
	}
}

func TestClientRetriesOnServerRetryResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	root := hash.Of([]byte("fake-root"))
	var requests atomic.Int64
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
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
			if typ != msgGetRoot {
				writeMsg(conn, msgErr, []byte("unexpected request"))
				return
			}
			// First attempt: transient refusal. Second: the real answer.
			if requests.Add(1) == 1 {
				if writeMsg(conn, msgErrRetry, []byte("head busy")) != nil {
					return
				}
				continue
			}
			if writeMsg(conn, msgRoot, encodeRoot(root, 3)) != nil {
				return
			}
		}
	}()

	cli, err := DialOptions(ln.Addr().String(), nil, Options{RetryBase: time.Millisecond})
	if err != nil {
		t.Fatalf("dial against retry-once server: %v", err)
	}
	defer cli.Close()
	got, height := cli.Root()
	if got != root || height != 3 {
		t.Fatalf("root after retry = %x h=%d, want %x h=3", got[:6], height, root[:6])
	}
	if requests.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2 (initial + resend)", requests.Load())
	}
}

func TestClientDeadlineBoundsSilentServer(t *testing.T) {
	// A server that accepts and never answers: the per-call deadline must
	// surface an error instead of hanging the client.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			io.Copy(io.Discard, conn) // read forever, answer never
		}
	}()

	start := time.Now()
	_, err = DialOptions(ln.Addr().String(), nil, Options{
		Timeout: 50 * time.Millisecond,
		Retries: -1, // no retries: one attempt, one deadline
	})
	if err == nil {
		t.Fatal("dial against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the call: took %v", elapsed)
	}
}

func TestServletRepoCommitsEveryBatch(t *testing.T) {
	cfg := postree.ConfigForNodeSize(256)
	s := store.NewMemStore()
	repo := version.NewRepo(s)
	idx, err := postree.Build(s, cfg, entriesN(100))
	if err != nil {
		t.Fatal(err)
	}
	repo.RegisterLoader(idx.Name(), func(st store.Store, root hash.Hash, height int) (core.Index, error) {
		return postree.Load(st, cfg, root, height), nil
	})
	seed, err := repo.Commit("main", idx, "seed")
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewServletRepo(repo, "main")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cli, err := Dial(addr, posLoader(cfg), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 3; i++ {
		if err := cli.PutBatch([]core.Entry{
			{Key: []byte(fmt.Sprintf("net-%d", i)), Value: []byte("remote")},
		}); err != nil {
			t.Fatalf("PutBatch %d: %v", i, err)
		}
	}

	head, ok := repo.Head("main")
	if !ok {
		t.Fatal("branch main lost its head")
	}
	if head.ID == seed.ID {
		t.Fatal("servlet writes did not advance the branch")
	}
	root, _ := cli.Root()
	if head.Root != root {
		t.Fatalf("branch head root %x != client root %x", head.Root[:6], root[:6])
	}
	if v, ok, err := cli.Get([]byte("net-2")); err != nil || !ok || string(v) != "remote" {
		t.Fatalf("Get(net-2) = %q, %v, %v", v, ok, err)
	}
	// Every batch is one durable commit; the whole graph scrubs clean.
	rep, err := repo.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Commits != 4 {
		t.Fatalf("verify after servlet writes = %s, faults %v", rep, rep.Faults)
	}
}

func TestServletCloseDrainsIdleConns(t *testing.T) {
	cfg := postree.ConfigForNodeSize(256)
	idx, err := postree.Build(store.NewMemStore(), cfg, entriesN(10))
	if err != nil {
		t.Fatal(err)
	}
	srv := seededServlet(t, idx)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// One conn mid-conversation (request served, parked for the next) and
	// one idle conn that never speaks: Close must unblock both handlers.
	busy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if err := writeMsg(busy, msgGetRoot, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readMsg(busy); err != nil || typ != msgRoot {
		t.Fatalf("getroot before close = %d, %v", typ, err)
	}
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung waiting on parked connection handlers")
	}
}
