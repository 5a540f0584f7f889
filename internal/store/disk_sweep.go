package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/hash"
)

// This file implements the reclamation half of DiskStore: logical deletes
// against the in-memory directory, and Sweep — mark-complement removal plus
// segment compaction.
//
// Deletes are logical: removing a digest from the directory makes the node
// unreadable immediately, but its record bytes stay in the segment file
// until a Sweep compacts it. A reopen before that compaction resurrects the
// record (the rebuild-on-open scan registers every intact record) — space
// garbage a later Sweep reclaims, never a correctness issue, because a
// resurrected node is just dead content nothing references.
//
// Compaction is crash-safe via write-new-then-swap: the live records of a
// segment are written to seg-NNNNNN.seg.compact, fsynced, and atomically
// renamed over the original. A crash before the rename leaves the original
// untouched (the orphaned .compact file is discarded on the next open); a
// crash after the rename leaves a complete, valid segment. Segment numbering
// stays contiguous either way, which the open scan requires.

// Delete implements Deleter. The node becomes unreadable now; its segment
// bytes are reclaimed by the next Sweep whose threshold the segment crosses.
func (d *DiskStore) Delete(h hash.Hash) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, errors.New("store: disk: Delete after Close")
	}
	return d.deleteLocked(h), nil
}

// deleteLocked removes h from whichever in-memory table holds it. Caller
// holds d.mu.
func (d *DiskStore) deleteLocked(h hash.Hash) bool {
	if data, ok := d.resident[h]; ok {
		delete(d.resident, h)
		d.ctr.uniqueNodes.Add(-1)
		d.ctr.uniqueBytes.Add(-int64(len(data)))
		return true
	}
	loc, ok := d.locs[h]
	if !ok {
		// A degraded-mode entry lives only in pending, queued for replay;
		// dropping the pending bytes makes the replay loop skip its digest.
		if p, ok := d.pending[h]; ok {
			delete(d.pending, h)
			d.pendingBytes -= len(p)
			d.ctr.uniqueNodes.Add(-1)
			d.ctr.uniqueBytes.Add(-int64(len(p)))
			return true
		}
		return false
	}
	delete(d.locs, h)
	if p, ok := d.pending[h]; ok {
		// The record is still only buffered; it will reach the file on the
		// next flush as dead bytes. Dropping the pending entry keeps Get
		// honest immediately.
		delete(d.pending, h)
		d.pendingBytes -= len(p)
	}
	d.ctr.uniqueNodes.Add(-1)
	d.ctr.uniqueBytes.Add(-int64(loc.n))
	return true
}

// Sweep implements Sweeper: buffered appends are flushed, every node the
// LiveFunc rejects is dropped from the directory, and segments whose live
// fraction fell below DiskOptions.CompactLiveFraction are rewritten to only
// their live records. The armed barrier, if any, extends the live predicate
// so records appended since the barrier was armed survive the pass.
//
// The whole pass runs under d.mu, but readers are barely affected: Get
// serves flushed records lock-free from a reader handle captured under a
// brief RLock, and compaction retires (never closes) the handles such
// readers hold.
func (d *DiskStore) Sweep(live LiveFunc) (SweepStats, error) {
	live = d.bar.wrap(live)
	d.mu.Lock()
	defer d.mu.Unlock()
	var st SweepStats
	if d.closed {
		return st, errors.New("store: disk: Sweep after Close")
	}
	if err := d.flushLocked(); err != nil {
		return st, err
	}
	for h, data := range d.resident {
		if live(h) {
			st.LiveNodes++
			st.LiveBytes += int64(len(data))
			continue
		}
		delete(d.resident, h)
		st.SweptNodes++
		st.SweptBytes += int64(len(data))
	}
	for h, loc := range d.locs {
		if live(h) {
			st.LiveNodes++
			st.LiveBytes += int64(loc.n)
			continue
		}
		delete(d.locs, h)
		st.SweptNodes++
		st.SweptBytes += int64(loc.n)
	}
	d.ctr.uniqueNodes.Add(-st.SweptNodes)
	d.ctr.uniqueBytes.Add(-st.SweptBytes)

	compacted, err := d.compactLocked()
	st.SegmentsCompacted = compacted
	return st, err
}

// liveRec pairs a surviving digest with its current location, for rewriting
// one segment's live records in file order.
type liveRec struct {
	h   hash.Hash
	loc recordLoc
}

// compactLocked rewrites every segment whose live fraction is below the
// configured threshold. Caller holds d.mu with the write buffer flushed.
func (d *DiskStore) compactLocked() (int, error) {
	liveBytes := make([]int64, len(d.readers))
	recs := make([][]liveRec, len(d.readers))
	for h, loc := range d.locs {
		liveBytes[loc.seg] += recordHeaderSize + int64(loc.n)
		recs[loc.seg] = append(recs[loc.seg], liveRec{h: h, loc: loc})
	}
	compacted := 0
	for id := range d.readers {
		var segSize int64
		if id == d.activeID {
			segSize = d.activeSize
		} else if fi, err := d.readers[id].Stat(); err == nil {
			segSize = fi.Size()
		}
		if segSize == 0 || liveBytes[id] == segSize {
			continue // nothing on disk, or nothing dead
		}
		// Fully dead segments always compact (to an empty file, which the
		// open scan accepts and the numbering requires); partially live
		// ones only when they crossed the threshold.
		if liveBytes[id] > 0 &&
			float64(liveBytes[id])/float64(segSize) >= d.opts.CompactLiveFraction {
			continue
		}
		if err := d.compactSegment(id, recs[id]); err != nil {
			d.fail(err)
			return compacted, err
		}
		compacted++
	}
	return compacted, nil
}

// compactSegment rewrites segment id to hold exactly recs (write-new-then-
// swap) and repoints the directory at the new offsets. Caller holds d.mu
// with the write buffer flushed.
func (d *DiskStore) compactSegment(id int, recs []liveRec) error {
	sort.Slice(recs, func(i, j int) bool { return recs[i].loc.off < recs[j].loc.off })
	path := filepath.Join(d.dirPath, segmentName(id))
	tmpPath := path + compactSuffix
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("store: disk: compact %s: %w", filepath.Base(path), err)
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: disk: compact %s: %w", filepath.Base(path), err)
	}
	old := d.readers[id]
	bw := bufio.NewWriterSize(tmp, 1<<20)
	newLocs := make([]recordLoc, len(recs))
	var off int64
	var hdr [recordHeaderSize]byte
	var payload []byte
	for i, r := range recs {
		if int(r.loc.n) > cap(payload) {
			payload = make([]byte, r.loc.n)
		}
		payload = payload[:r.loc.n]
		if _, err := old.ReadAt(payload, r.loc.off); err != nil {
			return fail(fmt.Errorf("read @%d: %w", r.loc.off, err))
		}
		binary.BigEndian.PutUint32(hdr[:4], uint32(r.loc.n))
		copy(hdr[4:], r.h[:])
		if _, err := bw.Write(hdr[:]); err != nil {
			return fail(err)
		}
		if _, err := bw.Write(payload); err != nil {
			return fail(err)
		}
		newLocs[i] = recordLoc{seg: int32(id), n: r.loc.n, off: off + recordHeaderSize}
		off += recordHeaderSize + int64(r.loc.n)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: disk: compact %s: %w", filepath.Base(path), err)
	}
	// Swap. The append writer closes first (it is only ever used under
	// d.mu, so nothing can be mid-write); the rename is atomic, so readers
	// never observe a half-written segment. If the rename fails the
	// original file is intact: reattach the writer and keep serving from
	// the still-installed old reader.
	d.crash(CrashCompactRename)
	if id == d.activeID && d.active != nil {
		if err := d.active.Close(); err != nil {
			d.fail(err)
		}
		d.active = nil
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		if id == d.activeID {
			if werr := d.openActiveWriter(); werr != nil {
				d.fail(werr)
			}
		}
		return fmt.Errorf("store: disk: compact swap %s: %w", filepath.Base(path), err)
	}
	d.crash(CrashCompactRenamed)
	rf, err := os.Open(path)
	if err != nil {
		// The directory entry now names the compacted file but it could
		// not be opened. The old handle still reads the original inode and
		// d.locs still holds the original offsets, so the store stays
		// consistent (serving the unlinked file) until Close.
		err = fmt.Errorf("store: disk: compact reopen %s: %w", filepath.Base(path), err)
		d.fail(err)
		return err
	}
	// Retire the old reader instead of closing it: Get reads flushed
	// records lock-free via a handle captured under RLock, so a concurrent
	// reader may still hold it. The unlinked inode stays readable (and its
	// record offsets stay valid) as long as the handle is open; Close
	// releases all retired handles.
	d.obsolete = append(d.obsolete, old)
	d.readers[id] = rf
	for i, r := range recs {
		d.locs[r.h] = newLocs[i]
	}
	if id == d.activeID {
		d.activeSize = off
		if err := d.openActiveWriter(); err != nil {
			return err
		}
	}
	return nil
}

// DiskUsage flushes buffered appends and returns the total bytes the
// segment files currently occupy on disk — the quantity the retention
// experiment shows shrinking after GC.
func (d *DiskStore) DiskUsage() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, errors.New("store: disk: DiskUsage after Close")
	}
	if err := d.flushLocked(); err != nil {
		return 0, err
	}
	var total int64
	for _, f := range d.readers {
		fi, err := f.Stat()
		if err != nil {
			return 0, fmt.Errorf("store: disk: %w", err)
		}
		total += fi.Size()
	}
	return total, nil
}

// DiskUsageOf reports the on-disk byte footprint behind s when s is a
// DiskStore or a wrapper over one (every Wrapper forwards DiskUsage); ok
// is false for purely in-memory stores.
func DiskUsageOf(s Store) (n int64, ok bool) {
	if u, ok := s.(interface{ DiskUsage() (int64, error) }); ok {
		n, err := u.DiskUsage()
		return n, err == nil
	}
	return 0, false
}
