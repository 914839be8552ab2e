package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rationality/internal/service"
)

// inputs serializes everything a workload sends for a seed, for
// byte-for-byte comparison.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	g, err := newGenerator(seed, smokeSizes().perShape)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ns := range []string{"hot", "cold", "fixture", "stream", "replay", "probe"} {
		for _, it := range g.items(ns, 64) {
			if err := enc.Encode([]any{it.ann, it.accept, it.kind}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputs(t, 7), inputs(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 produced different inputs on two runs")
	}
	if bytes.Equal(a, inputs(t, 8)) {
		t.Fatal("seeds 7 and 8 produced identical inputs")
	}
}

func TestForgeryRateAndFill(t *testing.T) {
	g, err := newGenerator(3, smokeSizes().perShape)
	if err != nil {
		t.Fatal(err)
	}
	forged := 0
	const n = 4000
	var it item
	for k := 0; k < n; k++ {
		g.fill(&it, "cold", k)
		if !it.accept {
			forged++
		}
		if want := g.item("cold", k); !bytes.Equal(want.ann.Game, it.ann.Game) {
			t.Fatalf("item %d: reused buffer differs from a fresh one", k)
		}
	}
	if forged < n/forgedOneIn*8/10 || forged > n/forgedOneIn*12/10 {
		t.Fatalf("%d forgeries in %d items, want about 1 in %d", forged, n, forgedOneIn)
	}
}

// A verdict that disagrees with the generator's expectation is counted
// as a failed operation.
func TestWrongVerdictFails(t *testing.T) {
	g, err := newGenerator(5, smokeSizes().perShape)
	if err != nil {
		t.Fatal(err)
	}
	a, err := startAuthority(service.Config{ID: "test"}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	o := newOutcome()
	it := g.item("cold", 0)
	checkedCall(context.Background(), o, a.clients[0], &it, nil)
	it.accept = !it.accept
	checkedCall(context.Background(), o, a.clients[0], &it, nil)
	if o.attempted != 2 || o.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", o.attempted, o.failed)
	}
}

// converge_rounds is a function of the seed: the same episodes take the
// same number of rounds every time. The wire bytes are compared too.
func TestGossipRoundsRepeatForSeed(t *testing.T) {
	run := func() (rounds []int, wire []uint64) {
		g, err := newGenerator(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		sz := smokeSizes()
		sz.gossipN = 20
		sz.gossipRecords = 4
		e := &env{sz: sz, seed: 11, gen: g, dir: t.TempDir()}
		for ep := 0; ep < 3; ep++ {
			res, err := runEpisode(context.Background(), e, ep, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.converged {
				t.Fatalf("episode %d did not converge in %d rounds", ep, res.rounds)
			}
			rounds = append(rounds, res.rounds)
			wire = append(wire, res.bytes)
		}
		return rounds, wire
	}
	r1, w1 := run()
	r2, w2 := run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("rounds per episode %v then %v for one seed", r1, r2)
		}
		if w1[i] != w2[i] {
			t.Errorf("episode %d: %d then %d wire bytes for one seed", i, w1[i], w2[i])
		}
	}
}

func TestCoveredUnionsChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 150}, {start: 60, end: 70}}
	if got := covered(parent, kids); got != 30+10+10 {
		t.Fatalf("covered = %d, want 50", got)
	}
}

// Every workload runs end to end at smoke sizes, untraced and traced,
// with no failed operation and every metric reported; the command line
// runs the same smoke mode.
func TestSmokeWorkloads(t *testing.T) {
	for name, fn := range workloads {
		args := []string{"--workload", name, "--seed", "3", "--seconds", "0.2", "--smoke", "--work", t.TempDir()}
		if code, err := run(args); code != 0 {
			t.Fatalf("%v: exit %d: %v", args, code, err)
		}
		for _, traced := range []bool{false, true} {
			rep, problems, err := runWorkload(context.Background(), name, fn, smokeSizes(), 3,
				300*time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct {
				t.Fatalf("%s traced=%v: %d of %d failed: %v", name, traced, rep.Failed, rep.Attempted, problems)
			}
			want := len(metricUnits) - len(endToEnd)
			if !traced {
				want = len(endToEnd)
			}
			if len(rep.Metrics) != want {
				t.Fatalf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.Metrics), want)
			}
			for m, v := range rep.Metrics {
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m, v.Value)
				}
			}
		}
	}
}

// BENCHMARK.json at the repository root declares exactly the metrics this
// command prints, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		declared[m.Name] = m.Unit
	}
	if len(b.EndToEnd) != len(endToEnd) || len(declared) != len(metricUnits) {
		t.Fatalf("declared %d end-to-end and %d metrics in all, printed %d and %d",
			len(b.EndToEnd), len(declared), len(endToEnd), len(metricUnits))
	}
	for name, unit := range metricUnits {
		if declared[name] != unit {
			t.Errorf("%s: declared unit %q, printed %q", name, declared[name], unit)
		}
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s, printed %s", i, m.Name, endToEnd[i])
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not runnable", w.Name)
		}
	}
}
