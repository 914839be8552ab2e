package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestIdleWindowSyncsBurst: a burst smaller than SyncEvery is synced by
// the idle window alone — no Close, no command — in one group, and every
// record of it survives into a copy of the segment files.
func TestIdleWindowSyncsBurst(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	const k = 16 // < DefaultSyncEvery
	for i := 0; i < k; i++ {
		if !s.Append(testKey(i), testVerdict(i), nil) {
			t.Fatalf("append %d refused", i)
		}
	}
	waitFor(t, "idle-window fsync", func() bool {
		st := s.Stats()
		return st.Persisted == k && st.Syncs >= 1
	})
	if st := s.Stats(); st.Syncs >= k {
		t.Fatalf("%d fsyncs for a %d-record burst: records were not grouped", st.Syncs, k)
	}

	cp := t.TempDir()
	for _, name := range []string{snapshotName, tailName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, recs := mustOpen(t, cp, Options{})
	if len(recs) != k {
		t.Fatalf("copy recovered %d records, want %d", len(recs), k)
	}
}

// TestSyncEveryOneSyncsEachRecord: SyncEvery=1 keeps its meaning under
// group commit — one fsync per record, none deferred to the window.
func TestSyncEveryOneSyncsEachRecord(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{SyncEvery: 1})
	const n = 20
	for i := 0; i < n; i++ {
		s.Append(testKey(i), testVerdict(i), nil)
	}
	// Close writes whatever is still queued and syncs it once; wait for
	// the running flusher to have written every record itself.
	waitFor(t, "records written", func() bool { return s.Stats().Persisted == n })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Persisted != n || st.Syncs != n {
		t.Fatalf("persisted=%d syncs=%d, want %d each", st.Persisted, st.Syncs, n)
	}
}

// TestSyncCommandSkipsIdleWindow: a sync-API command issued right after
// an append syncs the tail itself instead of waiting out the idle
// window. Comparing against the window's own latency on the same disk
// keeps the check independent of how long one fsync takes: the fastest
// command must beat the fastest idle-window sync by well over half the
// window.
func TestSyncCommandSkipsIdleWindow(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	const trials = 20
	fastestCmd, fastestIdle := time.Hour, time.Hour
	for i := 0; i < trials; i++ {
		before := s.Stats().Syncs
		start := time.Now()
		s.Append(testKey(2*i), testVerdict(i), nil)
		if _, err := s.Summary(); err != nil {
			t.Fatal(err)
		}
		fastestCmd = min(fastestCmd, time.Since(start))
		if s.Stats().Syncs == before {
			t.Fatal("command returned with the appended record unsynced")
		}

		before = s.Stats().Syncs
		start = time.Now()
		s.Append(testKey(2*i+1), testVerdict(i), nil)
		deadline := start.Add(5 * time.Second)
		for s.Stats().Syncs == before {
			if time.Now().After(deadline) {
				t.Fatal("idle store never synced its last record")
			}
			time.Sleep(10 * time.Microsecond)
		}
		fastestIdle = min(fastestIdle, time.Since(start))
	}
	if fastestIdle < idleWindow {
		t.Fatalf("idle-window sync after %v, before the %v window", fastestIdle, idleWindow)
	}
	if fastestCmd+idleWindow/2 > fastestIdle {
		t.Fatalf("command took %v against %v for an idle-window sync: it waited out the window", fastestCmd, fastestIdle)
	}
}
