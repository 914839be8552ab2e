package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"rationality/internal/service"
	"rationality/internal/store"
)

// TestWriteTextStableLines: the human rendering keeps the exact line
// shapes the README documents and the CI smoke greps.
func TestWriteTextStableLines(t *testing.T) {
	var buf bytes.Buffer
	WriteText(&buf, fixtureStats())
	out := buf.String()
	for _, want := range []string{
		"requests=120 batches=3 hits=90 misses=30 deduped=7 ingested=12 deltasServed=4 syncRounds=9",
		"accepted=100 rejected=18 failures=2 peakInFlight=8 cacheEntries=5 workers=4",
		"cache: 4 shards, per-shard entries [2 1 0 2]",
		"persistence: persisted=30 replayed=5 ingested=12 dropped=1 failed=0 live=35 garbage=3",
		"persistence: compactions=2 compactedRecords=9 salvagedBytes=128 syncs=17",
		"federation: signer=aa11aa11 trustedPeers=2 rejectedUnsigned=1 rejectedUnknown=3 rejectedBadSig=0 rejectedCorrupt=1",
		"federation: quarantined=1 rejectedQuarantined=2",
		"federation: peer bb22bb22 deltas=4 records=12 rejected=2",
		"accountability: audits=10 auditRefutations=3 auditsShed=1 ingestRefutations=2",
		"federation: trust bb22bb22 state=quarantined reputation=0.200 refutations=3",
		"sync: peer 10.0.0.2:7002 state=open attempts=9 pulled=12 failed=5 skippedBackoff=40 skippedQuarantine=2",
		"sync: peer 10.0.0.3:7002 state=healthy attempts=11 pulled=30 failed=0 skippedBackoff=0 skippedQuarantine=0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("text rendering missing line %q\ngot:\n%s", want, out)
		}
	}
	// Peers print in sorted order, so the output is stable run to run.
	if strings.Index(out, "bb22bb22") > strings.Index(out, "evil") {
		t.Error("peer lines not sorted")
	}
}

// TestDiffStatsRates: a two-second window with known counter movement
// produces the expected per-second rates and hit ratio.
func TestDiffStatsRates(t *testing.T) {
	prev := service.Stats{
		Requests: 100, CacheHits: 80, Deduplicated: 4, Ingested: 10, Failures: 2,
		Federation: &service.FederationStats{RejectedUnknown: 3},
	}
	cur := service.Stats{
		Requests: 300, CacheHits: 230, Deduplicated: 8, Ingested: 16, Failures: 2,
		InFlight: 5, CacheEntries: 42,
		Latency:     service.LatencySummary{P50: 2047, P99: 1_048_575},
		Federation:  &service.FederationStats{RejectedUnknown: 3, RejectedBadSig: 7},
		Persistence: &store.Stats{LiveRecords: 19},
	}
	d := DiffStats(prev, cur, 2*time.Second)
	if d.Requests != 200 || d.ReqPerSec != 100 {
		t.Errorf("req rate = %d (%v/s), want 200 (100/s)", d.Requests, d.ReqPerSec)
	}
	if got := d.HitRatio; math.Abs(got-0.75) > 1e-9 {
		t.Errorf("hit ratio = %v, want 0.75", got)
	}
	if d.DedupPerSec != 2 {
		t.Errorf("dedup/s = %v, want 2", d.DedupPerSec)
	}
	if d.IngestPerSec != 3 {
		t.Errorf("ingest/s = %v, want 3", d.IngestPerSec)
	}
	// Rejections across causes: prev total 3, cur total 10 → 3.5/s.
	if d.FedRejectPerSec != 3.5 {
		t.Errorf("fedrej/s = %v, want 3.5", d.FedRejectPerSec)
	}
	if d.FailPerSec != 0 {
		t.Errorf("fail/s = %v, want 0", d.FailPerSec)
	}
	if d.P50 != 2047 || d.P99 != 1_048_575 {
		t.Errorf("p50/p99 = %v/%v", d.P50, d.P99)
	}
	if d.InFlight != 5 || d.CacheEntries != 42 || d.LiveRecords != 19 {
		t.Errorf("gauges = %d/%d/%d", d.InFlight, d.CacheEntries, d.LiveRecords)
	}
}

// TestDiffStatsRestartTolerance: counters that moved backwards mean the
// watched authority restarted; the window counts from zero instead of
// underflowing to absurd rates.
func TestDiffStatsRestartTolerance(t *testing.T) {
	prev := service.Stats{Requests: 1000, CacheHits: 900}
	cur := service.Stats{Requests: 10, CacheHits: 4}
	d := DiffStats(prev, cur, time.Second)
	if d.Requests != 10 || d.ReqPerSec != 10 {
		t.Errorf("post-restart req delta = %d (%v/s), want 10 (10/s)", d.Requests, d.ReqPerSec)
	}
	if math.Abs(d.HitRatio-0.4) > 1e-9 {
		t.Errorf("post-restart hit ratio = %v, want 0.4", d.HitRatio)
	}
}

// TestDiffStatsIdleWindow: no requests in the window renders the hit
// ratio as unknown, not a division by zero.
func TestDiffStatsIdleWindow(t *testing.T) {
	st := service.Stats{Requests: 50, CacheHits: 50}
	d := DiffStats(st, st, time.Second)
	if !math.IsNaN(d.HitRatio) {
		t.Errorf("idle hit ratio = %v, want NaN", d.HitRatio)
	}
	if !strings.Contains(d.Row(), " - ") {
		t.Errorf("idle row should render hit%% as '-': %q", d.Row())
	}
	if d.ReqPerSec != 0 {
		t.Errorf("idle req/s = %v", d.ReqPerSec)
	}
}

// TestWatchRowAlignment: rows line up under the header, column for
// column, so the watch view reads as a table.
func TestWatchRowAlignment(t *testing.T) {
	d := DiffStats(service.Stats{}, fixtureStats(), 2*time.Second)
	header := WatchHeader()
	row := d.Row()
	// Terminal columns are runes, not bytes — durations carry a µ.
	if utf8.RuneCountInString(header) != utf8.RuneCountInString(row) {
		t.Errorf("header/row width mismatch:\n%s\n%s", header, row)
	}
}
