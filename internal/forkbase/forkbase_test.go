package forkbase

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/mpt"
	"repro/internal/postree"
	"repro/internal/store"
	"repro/internal/version"
)

func posLoader(cfg postree.Config) Loader {
	return func(s store.Store, root hash.Hash, height int) core.Index {
		return postree.Load(s, cfg, root, height)
	}
}

// seededServlet commits idx as the head of branch "main" in a fresh repo
// over idx's store and returns a servlet serving that branch.
func seededServlet(tb testing.TB, idx core.Index) *Servlet {
	tb.Helper()
	repo := version.NewRepo(idx.Store())
	switch ix := idx.(type) {
	case *postree.Tree:
		cfg := ix.Config()
		repo.RegisterLoader(ix.Name(), func(s store.Store, root hash.Hash, height int) (core.Index, error) {
			return postree.Load(s, cfg, root, height), nil
		})
	case *mpt.Trie:
		repo.RegisterLoader(ix.Name(), func(s store.Store, root hash.Hash, _ int) (core.Index, error) {
			return mpt.Load(s, root), nil
		})
	default:
		tb.Fatalf("no loader for index class %s", idx.Name())
	}
	if _, err := repo.Commit("main", idx, "seed"); err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServletRepo(repo, "main")
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

func startServlet(t *testing.T, idx core.Index) (*Servlet, string) {
	t.Helper()
	srv := seededServlet(t, idx)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func entriesN(n int) []core.Entry {
	out := make([]core.Entry, n)
	for i := range out {
		out[i] = core.Entry{
			Key:   []byte(fmt.Sprintf("key-%05d", i)),
			Value: []byte(fmt.Sprintf("value-%05d", i)),
		}
	}
	return out
}

func TestClientReadsThroughServer(t *testing.T) {
	cfg := postree.ConfigForNodeSize(256)
	s := store.NewMemStore()
	idx, err := postree.Build(s, cfg, entriesN(500))
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServlet(t, idx)

	cli, err := Dial(addr, posLoader(cfg), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 500; i += 37 {
		key := []byte(fmt.Sprintf("key-%05d", i))
		v, ok, err := cli.Get(key)
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("value-%05d", i))) {
			t.Fatalf("Get(%q) = %q, %v, %v", key, v, ok, err)
		}
	}
	if _, ok, err := cli.Get([]byte("missing")); err != nil || ok {
		t.Fatalf("Get(missing) = %v, %v", ok, err)
	}
}

func TestClientWritesApplyServerSide(t *testing.T) {
	cfg := postree.ConfigForNodeSize(256)
	s := store.NewMemStore()
	idx, err := postree.Build(s, cfg, entriesN(100))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServlet(t, idx)

	cli, err := Dial(addr, posLoader(cfg), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	before, _ := cli.Root()
	if err := cli.PutBatch([]core.Entry{
		{Key: []byte("key-00042"), Value: []byte("rewritten")},
		{Key: []byte("brand-new"), Value: []byte("hello")},
	}); err != nil {
		t.Fatal(err)
	}
	after, _ := cli.Root()
	if before == after {
		t.Fatal("root unchanged after write")
	}
	// Server head advanced too.
	if srv.Head().RootHash() != after {
		t.Fatal("server head does not match client root")
	}
	// Readable through the same client.
	v, ok, err := cli.Get([]byte("brand-new"))
	if err != nil || !ok || string(v) != "hello" {
		t.Fatalf("Get(new) = %q, %v, %v", v, ok, err)
	}
	v, ok, err = cli.Get([]byte("key-00042"))
	if err != nil || !ok || string(v) != "rewritten" {
		t.Fatalf("Get(rewritten) = %q, %v, %v", v, ok, err)
	}
}

func TestSecondClientSeesWritesAfterRefresh(t *testing.T) {
	cfg := postree.ConfigForNodeSize(256)
	idx, err := postree.Build(store.NewMemStore(), cfg, entriesN(50))
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServlet(t, idx)

	writer, err := Dial(addr, posLoader(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader, err := Dial(addr, posLoader(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	if err := writer.PutBatch([]core.Entry{{Key: []byte("fresh"), Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := reader.Get([]byte("fresh")); ok {
		t.Fatal("reader saw write without refresh (stale snapshot expected)")
	}
	if err := reader.Refresh(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := reader.Get([]byte("fresh")); err != nil || !ok || string(v) != "x" {
		t.Fatalf("after refresh Get = %q, %v, %v", v, ok, err)
	}
}

func TestClientCacheReducesServerLoad(t *testing.T) {
	cfg := postree.ConfigForNodeSize(256)
	s := store.NewMemStore()
	idx, err := postree.Build(s, cfg, entriesN(300))
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServlet(t, idx)

	cli, err := Dial(addr, posLoader(cfg), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	key := []byte("key-00123")
	if _, _, err := cli.Get(key); err != nil {
		t.Fatal(err)
	}
	h0, m0 := cli.CacheStats()
	for i := 0; i < 10; i++ {
		if _, _, err := cli.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := cli.CacheStats()
	if m1 != m0 {
		t.Fatalf("repeated reads missed the cache: misses %d → %d", m0, m1)
	}
	if h1 <= h0 {
		t.Fatal("repeated reads produced no cache hits")
	}
}

func TestServletWithMPT(t *testing.T) {
	// The servlet is index-agnostic; run it over an MPT too.
	s := store.NewMemStore()
	var idx core.Index = mpt.New(s)
	var err error
	for i := 0; i < 50; i++ {
		idx, err = idx.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startServlet(t, idx)
	loader := func(st store.Store, root hash.Hash, _ int) core.Index {
		return mpt.Load(st, root)
	}
	cli, err := Dial(addr, loader, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if v, ok, err := cli.Get([]byte("key-07")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
}

func TestProtocolRoundTrips(t *testing.T) {
	entries := entriesN(5)
	back, err := decodeEntries(encodeEntries(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 5 || !bytes.Equal(back[2].Key, entries[2].Key) {
		t.Fatalf("entries round trip failed: %v", back)
	}
	h := hash.Of([]byte("root"))
	rh, ht, err := decodeRoot(encodeRoot(h, 7))
	if err != nil || rh != h || ht != 7 {
		t.Fatalf("root round trip = %v, %d, %v", rh, ht, err)
	}
}

func TestReadMsgRejectsBadLength(t *testing.T) {
	if _, _, err := readMsg(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length message accepted")
	}
	if _, _, err := readMsg(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Fatal("oversized message accepted")
	}
}
