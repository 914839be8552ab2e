package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"rationality/internal/identity"
)

// reencodeLive is the decode/re-encode compaction that frame copying
// replaced, kept as the reference the property below compares against:
// decode every live record, retire the oldest cold records and then the
// oldest hot ones down to maxLive, and re-stamp the surviving hot
// records above every other stamp in their existing order.
func reencodeLive(rec *recovery, hot map[identity.Hash]bool, maxLive int) map[identity.Hash]Record {
	var cold, warm []Record
	for _, r := range rec.live {
		if hot[r.Key] {
			warm = append(warm, *r)
		} else {
			cold = append(cold, *r)
		}
	}
	for _, rs := range [][]Record{cold, warm} {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Stamp < rs[j].Stamp })
	}
	out := make(map[identity.Hash]Record, len(rec.live))
	for _, r := range rec.live {
		out[r.Key] = *r
	}
	if over := len(out) - maxLive; over > 0 {
		for _, r := range append(append([]Record(nil), cold...), warm...)[:over] {
			delete(out, r.Key)
		}
	}
	next := rec.maxStamp + 1
	for _, r := range warm {
		if cp, ok := out[r.Key]; ok {
			cp.Stamp = next
			next++
			out[r.Key] = cp
		}
	}
	return out
}

// ingestRandom writes n generated records through Ingest, which keeps
// each record's stamp and origin, so the history mixes origins, audit
// requests, certificates and superseded keys.
func ingestRandom(t *testing.T, s *Store, rng *rand.Rand, n, keys int, stamp *uint64) {
	t.Helper()
	origins := []string{"", "aa11", "bb22"}
	recs := make([]Record, n)
	for i := range recs {
		*stamp += 1 + uint64(rng.Intn(3))
		k := rng.Intn(keys)
		r := Record{
			Key:     testKey(k),
			Stamp:   *stamp,
			Origin:  identity.PartyID(origins[rng.Intn(len(origins))]),
			Verdict: testVerdict(int(*stamp)),
		}
		if rng.Intn(2) == 0 {
			r.Request = testRequest(k)
		}
		if rng.Intn(3) == 0 {
			r.Cert = []byte(fmt.Sprintf(`{"cert":%d}`, *stamp))
		}
		recs[i] = r
	}
	if _, _, err := s.Ingest(recs); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionFrameCopyMatchesReencode is the compaction-equivalence
// property: over generated histories — a compacted snapshot plus a tail
// that supersedes part of it (and, for some seeds, first repeats it, as a
// crash mid-compaction leaves it), mixed origins, requests and certificates,
// Retain-hot and cold keys, and a MaxLive bound the live set overflows —
// a frame-copying compaction leaves exactly the live set the
// decode/re-encode path would have kept, and every frame it wrote
// carries a valid CRC.
func TestCompactionFrameCopyMatchesReencode(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			keys := 8 + rng.Intn(24)
			var stamp uint64

			// History: one snapshot, then a tail superseding part of it.
			s, _ := mustOpen(t, dir, Options{CompactAt: 1 << 20})
			ingestRandom(t, s, rng, 10+rng.Intn(40), keys, &stamp)
			if err := s.do(s.compact); err != nil || s.flushErr != nil {
				t.Fatalf("seeding compaction: %v %v", err, s.flushErr)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				// A crash between the snapshot rename and the tail
				// truncation: the tail repeats the snapshot's frames
				// with equal stamps.
				snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
				if err != nil {
					t.Fatal(err)
				}
				tail, err := os.OpenFile(filepath.Join(dir, tailName), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tail.Write(snap[segmentHeaderLen:]); err != nil {
					t.Fatal(err)
				}
				if err := tail.Close(); err != nil {
					t.Fatal(err)
				}
			}
			s, _ = mustOpen(t, dir, Options{CompactAt: 1 << 20})
			ingestRandom(t, s, rng, 10+rng.Intn(40), keys, &stamp)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := recoverDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			hot := make(map[identity.Hash]bool)
			for k := 0; k < keys; k++ {
				if rng.Intn(3) == 0 {
					hot[testKey(k)] = true
				}
			}
			maxLive := 1 + len(rec.live)*2/3
			want := reencodeLive(rec, hot, maxLive)

			opts := Options{MaxLive: maxLive, CompactAt: 1 << 20, Retain: func(k identity.Hash) bool { return hot[k] }}
			s, _ = mustOpen(t, dir, opts)
			if err := s.do(s.compact); err != nil || s.flushErr != nil {
				t.Fatalf("compaction: %v %v", err, s.flushErr)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Every frame in the new snapshot passes its CRC and column
			// checks: the valid prefix is the whole file.
			frames := 0
			err = scanFile(filepath.Join(dir, snapshotName), func(*frame) error { frames++; return nil },
				func(valid, size int64, version int) error {
					if valid != size || version != segmentV4 {
						t.Errorf("snapshot: valid prefix %d of %d bytes, version %d", valid, size, version)
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if frames != len(want) {
				t.Fatalf("snapshot holds %d frames, want %d", frames, len(want))
			}
			if info, err := os.Stat(filepath.Join(dir, tailName)); err != nil || info.Size() != segmentHeaderLen {
				t.Fatalf("tail after compaction: %v, %v", info, err)
			}

			s, recs := mustOpen(t, dir, opts)
			if len(recs) != len(want) {
				t.Fatalf("recovered %d records, want %d", len(recs), len(want))
			}
			manifest := manifestOf(t, s)
			for _, r := range recs {
				w, ok := want[r.Key]
				if !ok {
					t.Fatalf("recovered key %x, which the reference retired", r.Key[:4])
				}
				if !reflect.DeepEqual(r, w) {
					t.Fatalf("recovered %+v, want %+v", r, w)
				}
				if got := manifest[r.Key]; got.Stamp != w.Stamp || got.Sum != recordSum(&w) {
					t.Fatalf("manifest line %+v, want stamp %d sum %d", got, w.Stamp, recordSum(&w))
				}
			}
		})
	}
}
