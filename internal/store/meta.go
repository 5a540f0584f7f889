package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrNoMeta reports a metadata request against a store whose backing does
// not support the MetaStore capability.
var ErrNoMeta = errors.New("store: backend does not support metadata")

// MetaStore is an optional capability: a tiny mutable key→value side area
// outside the content-addressed space. A content-addressed store cannot
// hold a "well-known key" — every key is the digest of its value — yet a
// versioned system still needs a handful of mutable pointers, branch heads
// above all. MetaStore is that escape hatch: a few small entries, updated
// in place, never part of the node space (sweeps and compactions do not
// touch them). DiskStore persists meta crash-safely next to its segments;
// the in-memory backend keeps a map.
//
// The capability is intentionally minimal — it is a root-pointer area, not
// a second database. Values are copied on both Set and Get, so callers
// never alias store-internal state.
type MetaStore interface {
	// SetMeta stores value under key, replacing any previous value.
	SetMeta(key string, value []byte) error
	// GetMeta returns the value stored under key.
	GetMeta(key string) (value []byte, ok bool, err error)
}

// SetMeta writes a metadata entry through s's MetaStore capability,
// reporting ErrNoMeta for stores that lack it.
func SetMeta(s Store, key string, value []byte) error {
	if m, ok := s.(MetaStore); ok {
		return m.SetMeta(key, value)
	}
	return fmt.Errorf("%w: %T", ErrNoMeta, s)
}

// GetMeta reads a metadata entry through s's MetaStore capability,
// reporting ErrNoMeta for stores that lack it.
func GetMeta(s Store, key string) ([]byte, bool, error) {
	if m, ok := s.(MetaStore); ok {
		return m.GetMeta(key)
	}
	return nil, false, fmt.Errorf("%w: %T", ErrNoMeta, s)
}

// Compile-time checks: every built-in backend supports metadata.
var (
	_ MetaStore = (*MemStore)(nil)
	_ MetaStore = (*DiskStore)(nil)
	_ MetaStore = (*CachedStore)(nil)
)

// metaMap is the shared in-memory metadata implementation.
type metaMap struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (mm *metaMap) set(key string, value []byte) {
	mm.mu.Lock()
	if mm.m == nil {
		mm.m = make(map[string][]byte)
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	mm.m[key] = cp
	mm.mu.Unlock()
}

func (mm *metaMap) get(key string) ([]byte, bool) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	v, ok := mm.m[key]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true
}

// clear drops every entry (used when a corrupt meta file degrades to an
// empty map at open time).
func (mm *metaMap) clear() {
	mm.mu.Lock()
	mm.m = nil
	mm.mu.Unlock()
}

// snapshot returns a copy of every entry. Caller-side serialization only.
func (mm *metaMap) snapshot() map[string][]byte {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	out := make(map[string][]byte, len(mm.m))
	for k, v := range mm.m {
		cp := make([]byte, len(v))
		copy(cp, v)
		out[k] = cp
	}
	return out
}

// SetMeta implements MetaStore.
func (s *MemStore) SetMeta(key string, value []byte) error {
	s.meta.set(key, value)
	return nil
}

// GetMeta implements MetaStore.
func (s *MemStore) GetMeta(key string) ([]byte, bool, error) {
	v, ok := s.meta.get(key)
	return v, ok, nil
}

// metaFileName is the DiskStore metadata file, living beside the segment
// files. The *.tmp sibling exists only during an atomic rewrite.
const metaFileName = "meta.bin"

// SetMeta implements MetaStore. The whole (small) metadata map is rewritten
// to a temporary file — fsynced before the rename, with the directory entry
// fsynced after — so a crash at any point leaves either the old or the new
// state, never a torn mix.
func (d *DiskStore) SetMeta(key string, value []byte) error {
	if err := d.writeErr("meta"); err != nil {
		// Degraded read-only: fail BEFORE the in-memory mirror moves, so a
		// rejected head update is rejected everywhere, not just on disk.
		return fmt.Errorf("store: disk: meta: degraded read-only: %w", err)
	}
	d.meta.set(key, value)
	entries := d.meta.snapshot()
	d.metaFileMu.Lock()
	defer d.metaFileMu.Unlock()
	buf := encodeMeta(entries)
	path := filepath.Join(d.dirPath, metaFileName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: disk: meta: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: disk: meta: %w", err)
	}
	// The data must be durable before the rename makes it reachable;
	// otherwise a crash can leave a durable rename pointing at
	// not-yet-written blocks — exactly the torn state the contract rules
	// out.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: disk: meta: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: disk: meta: %w", err)
	}
	d.crash(CrashMetaRename)
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: disk: meta: %w", err)
	}
	d.crash(CrashMetaRenamed)
	// Make the rename itself durable.
	dir, err := os.Open(d.dirPath)
	if err != nil {
		return fmt.Errorf("store: disk: meta: %w", err)
	}
	serr := dir.Sync()
	if cerr := dir.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("store: disk: meta: %w", serr)
	}
	return nil
}

// GetMeta implements MetaStore, serving from the in-memory mirror loaded at
// open time.
func (d *DiskStore) GetMeta(key string) ([]byte, bool, error) {
	v, ok := d.meta.get(key)
	return v, ok, nil
}

// encodeMeta serializes a metadata map as length-prefixed key/value pairs.
// Iteration order does not matter: the file is reloaded into a map.
func encodeMeta(entries map[string][]byte) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for k, v := range entries {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// loadMeta reads the metadata file into the in-memory mirror at open time.
// A missing file is an empty map. A corrupt file does NOT fail the open:
// metadata holds only mutable pointers (branch heads) that can be rebuilt
// by resuming from commit IDs, while the segment data behind them is
// intact and content-verified — wedging the whole store over a torn
// pointer file would make recovery impossible exactly when it is needed.
// Instead the broken file is moved aside (metaFileName + ".corrupt", best
// effort) and the store opens with empty metadata; Recovery().MetaCorrupt
// reports the degradation so callers know persisted heads are gone and a
// log resume is required.
func (d *DiskStore) loadMeta() error {
	path := filepath.Join(d.dirPath, metaFileName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: disk: meta: %w", err)
	}
	degrade := func() {
		d.recov.MetaCorrupt = true
		d.meta.clear()
		_ = os.Rename(path, path+".corrupt")
	}
	n, rest, err := metaUvarint(data)
	if err != nil {
		degrade()
		return nil
	}
	for i := uint64(0); i < n; i++ {
		var k, v []byte
		if k, rest, err = metaBytes(rest); err != nil {
			degrade()
			return nil
		}
		if v, rest, err = metaBytes(rest); err != nil {
			degrade()
			return nil
		}
		d.meta.set(string(k), v)
	}
	return nil
}

// metaUvarint decodes one varint from the metadata encoding.
func metaUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("store: disk: corrupt meta file")
	}
	return v, b[n:], nil
}

// metaBytes decodes one length-prefixed byte string from the metadata
// encoding.
func metaBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := metaUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, errors.New("store: disk: corrupt meta file")
	}
	return rest[:n], rest[n:], nil
}
