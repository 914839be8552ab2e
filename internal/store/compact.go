package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"rationality/internal/fsx"
	"rationality/internal/identity"
)

// compact rewrites the live set into a fresh snapshot segment and empties
// the tail. It runs on the flusher goroutine (never concurrently with a
// write) and keeps the invariant that at every instant the union of
// snapshot + tail on disk contains every synced record's newest version:
//
//  1. Decide the new live set from the in-memory index alone: retire
//     records beyond MaxLive and re-stamp the hot ones (the index holds
//     every live key's stamp, so no record is read for this).
//  2. Scan snapshot + tail frame by frame and copy each surviving key's
//     live frame, byte for byte, into verdicts.snap.tmp — a re-stamped
//     frame gets its new stamp and a re-sealed CRC, nothing else changes,
//     and no verdict is decoded or re-encoded. Every frame copied passed
//     its CRC check on the way in. Fsync the temp file.
//  3. Rename over verdicts.snap (atomic on POSIX) and fsync the
//     directory, making the snapshot the durable source of truth.
//  4. Truncate the tail to zero and fsync it.
//
// A crash between 3 and 4 leaves tail records that duplicate snapshot
// records with equal stamps; recovery's newest-stamp-wins replay makes
// that harmless. A crash before 3 leaves the old snapshot + full tail —
// exactly the pre-compaction state. Appends queued while compaction runs
// wait in the bounded channel (or are dropped and counted when it
// overflows); verification itself never waits.
func (s *Store) compact() {
	if s.flushErr != nil {
		return
	}
	// Everything the scan reads back must be on its way to disk first.
	s.syncTail()
	if s.flushErr != nil {
		return
	}
	cold, hot := s.partitionRetained()
	retired := s.retireOldest(cold, hot)
	// want maps each surviving key to the stamp its live frame carries on
	// disk; a key leaves it once its frame is copied, so an equal-stamp
	// duplicate (a crash between steps 3 and 4) is written only once.
	want := make(map[identity.Hash]uint64, len(s.index))
	for key, e := range s.index {
		want[key] = e.stamp
	}
	s.refreshRetained(hot)
	err := installSnapshot(s.dir, func(w io.Writer) error {
		copyLive := func(f *frame) error {
			if stamp, ok := want[f.key]; !ok || f.stamp != stamp {
				return nil // superseded, retired, or already copied
			}
			delete(want, f.key)
			if now := s.index[f.key].stamp; now != f.stamp {
				f.restamp(now)
			}
			_, err := w.Write(f.raw)
			return err
		}
		// Open upgrades every segment to v4 before the flusher starts,
		// so every frame scanned here is already in the snapshot's layout.
		if err := scanFile(filepath.Join(s.dir, snapshotName), copyLive, nil); err != nil {
			return err
		}
		return scanFile(filepath.Join(s.dir, tailName), copyLive, nil)
	})
	if err != nil {
		s.flushErr = err
		return
	}
	if err := s.tail.Truncate(0); err != nil {
		s.flushErr = fmt.Errorf("store: truncating tail: %w", err)
		return
	}
	if _, err := s.tail.Write(segmentHeader); err != nil {
		s.flushErr = fmt.Errorf("store: writing tail header: %w", err)
		return
	}
	if err := s.tail.Sync(); err != nil {
		s.flushErr = fmt.Errorf("store: syncing truncated tail: %w", err)
		return
	}
	s.compactions.Add(1)
	s.compacted.Add(s.garbage.Swap(0) + retired)
}

// liveKey is one index line reduced to what retirement orders by.
type liveKey struct {
	key   identity.Hash
	stamp uint64
}

// partitionRetained splits the live set into cold keys and keys the
// Retain hook vouches for (e.g. cache-resident verdicts), each sorted
// oldest append stamp first. One scan and one Retain call per key serves
// both retirement and re-stamping — the hook is a foreign lookup (the
// service's cache probe) the flusher shouldn't pay twice per compaction.
func (s *Store) partitionRetained() (cold, hot []liveKey) {
	cold = make([]liveKey, 0, len(s.index))
	for key, e := range s.index {
		if s.opts.Retain != nil && s.opts.Retain(key) {
			hot = append(hot, liveKey{key, e.stamp})
		} else {
			cold = append(cold, liveKey{key, e.stamp})
		}
	}
	byStamp := func(ks []liveKey) {
		sort.Slice(ks, func(i, j int) bool { return ks[i].stamp < ks[j].stamp })
	}
	byStamp(cold)
	byStamp(hot)
	return cold, hot
}

// retireOldest enforces the MaxLive retention bound: when the live set
// exceeds it, surplus keys are removed from the in-memory index — and so
// from the snapshot-to-be — as retired history, counted with the
// compacted records. Victim order is oldest append stamp first among the
// cold keys; hot (vouched-for) keys go last, so a verdict that was
// appended long ago and then served from the cache forever — its stamp
// never refreshes, because cache hits must not touch the store —
// survives retirement as long as it stays hot. With MaxLive equal to
// the owner's cache capacity the hot set always fits the bound, so a
// retained record is in practice never retired.
func (s *Store) retireOldest(cold, hot []liveKey) uint64 {
	if s.opts.MaxLive <= 0 || len(s.index) <= s.opts.MaxLive {
		return 0
	}
	victims := append(cold[:len(cold):len(cold)], hot...)[:len(s.index)-s.opts.MaxLive]
	for _, k := range victims {
		delete(s.index, k.key)
	}
	retired := uint64(len(victims))
	s.live.Add(^(retired - 1)) // atomic subtract; victims is non-empty here
	return retired
}

// refreshRetained re-stamps the surviving hot keys, in their existing
// relative order, above every other stamp. A hot record's append stamp
// is frozen at its first verification, so without this the stamp
// ordering that recovery and retirement rely on would rank the most
// valuable records as the most expendable; after each compaction the
// stamps again mean "least valuable first". The tail may still hold the
// old-stamp duplicates — newest-wins replay collapses them onto the
// re-stamped snapshot copy.
func (s *Store) refreshRetained(hot []liveKey) {
	for _, k := range hot {
		entry, survived := s.index[k.key]
		if !survived {
			continue // retired above: nothing to re-rank
		}
		entry.stamp = s.nextStamp // content unchanged: the sum stays
		s.nextStamp++
		s.index[k.key] = entry
	}
}

// writeSnapshot encodes a decoded live set into a fresh snapshot. Only
// the legacy-format upgrade in Open needs it — every other snapshot is
// built by compact, which copies frames instead of re-encoding them.
func (s *Store) writeSnapshot(live map[identity.Hash]*Record) error {
	return installSnapshot(s.dir, func(w io.Writer) error {
		var buf []byte
		for _, r := range live {
			var err error
			if buf, _, err = appendRecord(buf[:0], r); err != nil {
				return err
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// installSnapshot builds a snapshot segment in a temp file — the version
// header, then whatever write emits — fsyncs it, and atomically renames
// it over the snapshot. Writes go through one buffered writer: a large
// live set must not become one syscall per record on the flusher
// goroutine, which has appends queueing behind it.
func installSnapshot(dir string, write func(io.Writer) error) error {
	tmpPath := filepath.Join(dir, snapshotName+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	defer tmp.Close() // no-op after the explicit Close below
	w := bufio.NewWriterSize(tmp, 1<<16)
	if _, err := w.Write(segmentHeader); err != nil {
		return fmt.Errorf("store: writing snapshot header: %w", err)
	}
	if err := write(w); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("store: flushing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, snapshotName)); err != nil {
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	// Compaction truncates the tail only after the snapshot's directory
	// entry is durable: a durable truncation paired with a non-durable
	// rename would lose the whole live set on a crash.
	return fsx.SyncDir(dir)
}
