package store

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// Backend names accepted by Open and the -store flag of cmd/siribench.
const (
	BackendMem  = "mem"  // lock-striped in-memory map (MemStore)
	BackendDisk = "disk" // append-only segment files (DiskStore)
)

// Backends lists the selectable backend names.
func Backends() []string { return []string{BackendMem, BackendDisk} }

// Config selects and tunes a store backend. The zero value opens a plain
// MemStore, matching the repository's historical default.
type Config struct {
	// Backend is one of Backends(); empty means "mem".
	Backend string
	// Dir is the base directory for the disk backend. Every Open call
	// creates a fresh unique subdirectory under it, so concurrent
	// experiments never collide; empty means the OS temp directory. To
	// reopen an existing store at an exact path, use OpenDiskStore.
	Dir string
	// KeepFiles preserves a disk backend's segment directory on Close.
	// By default Open-created stores are ephemeral benchmark fixtures and
	// remove their files when released.
	KeepFiles bool
	// SegmentBytes overrides the disk backend's segment roll size.
	SegmentBytes int64
	// CacheBytes, when positive, layers a CachedStore LRU of that many
	// bytes over the selected backend.
	CacheBytes int64
}

// Open constructs the configured backend, optionally wrapped in an LRU
// cache. Callers should Release the returned store when done; for the disk
// backend that closes the segment files (and removes them unless
// KeepFiles).
func Open(cfg Config) (Store, error) {
	var base Store
	switch cfg.Backend {
	case "", BackendMem:
		base = NewMemStore()
	case BackendDisk:
		dir := cfg.Dir
		if dir == "" {
			dir = os.TempDir()
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		sub, err := os.MkdirTemp(dir, "sirstore-")
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		ds, err := OpenDiskStore(sub, DiskOptions{SegmentBytes: cfg.SegmentBytes})
		if err != nil {
			os.RemoveAll(sub) // don't orphan the fresh subdirectory
			return nil, err
		}
		ds.removeOnClose = !cfg.KeepFiles
		base = ds
	default:
		return nil, fmt.Errorf("store: unknown backend %q (want %s)", cfg.Backend, strings.Join(Backends(), ", "))
	}
	if cfg.CacheBytes > 0 {
		return NewCachedStore(base, cfg.CacheBytes), nil
	}
	return base, nil
}

// Release closes s if it holds OS resources (DiskStore, or a wrapper over
// one); purely in-memory stores are a no-op. Benchmarks call it after
// every store they open so disk-backed runs do not accumulate file handles.
func Release(s Store) error {
	if c, ok := s.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
