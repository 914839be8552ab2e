package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"rationality/internal/gossip/gossiptest"
	"rationality/internal/identity"
	"rationality/internal/service"
)

// episode is one gossip-n20 convergence: a fresh federation whose nodes
// each start with records no other node holds, stepped in lockstep until
// every manifest is identical, then for a few idle in-sync rounds.
type episode struct {
	setup     time.Duration
	rounds    int
	converged bool
	divergent time.Duration // wall time of the rounds up to convergence
	copies    int           // record copies delivered, records × (n−1) when converged
	delays    []weighted    // per-copy delay (µs since the first round) and count
	alloc     uint64        // bytes allocated during the divergent rounds
	bytes     uint64        // PipeNet bytes during the divergent rounds
	exchanges uint64
	inSync    uint64
	shipped   uint64 // records sent and received by the initiators
	idleExch  uint64
	idleSync  uint64
	idleOK    bool // still converged after the idle rounds
}

// roundBudget is the ⌈2·log2 n⌉ rounds an episode may take.
func roundBudget(n int) int { return int(math.Ceil(2 * math.Log2(float64(n)))) }

// clusterSeed is episode ep's peer-selection seed. It depends on the
// episode index only, so every run covers the same sequence of gossip
// topologies (and so the same mix of short and long convergences); the
// run's --seed picks the records that travel over them.
func clusterSeed(ep int) int64 { return int64(ep) + 1 }

// runEpisode builds the federation, loads its records, runs the rounds
// and tears it down. probe, when non-nil, runs on the converged cluster
// before teardown.
func runEpisode(ctx context.Context, e *env, ep int, t *tracer, probe func(*gossiptest.Cluster) error) (episode, error) {
	sz := e.sz
	var res episode
	dir := e.subdir("gossip")
	defer os.RemoveAll(dir)
	runtime.GC() // no collection left running from earlier work
	start := time.Now()
	c, err := gossiptest.New(dir, gossiptest.Config{N: sz.gossipN, Fanout: 2, Seed: clusterSeed(ep)})
	if err != nil {
		return res, err
	}
	res.setup = time.Since(start)
	defer c.Close()

	held := make([]int, sz.gossipN)
	for i := range c.Nodes {
		if err := c.Verify(i, fmt.Sprintf("s%d-e%d-n%d", e.seed, ep, i), sz.gossipRecords); err != nil {
			return res, err
		}
		offer, err := c.Nodes[i].Service.SyncOffer()
		if err != nil {
			return res, err
		}
		if held[i] = len(offer.Have); held[i] != sz.gossipRecords {
			return res, fmt.Errorf("node %d holds %d records after loading %d", i, held[i], sz.gossipRecords)
		}
	}
	total := sz.gossipN * sz.gossipRecords

	step := func(name string) (time.Duration, uint64, error) {
		root := t.newID()
		a0 := allocBytes()
		t0 := time.Now()
		ts := t.now()
		for _, n := range c.Nodes {
			var err error
			t.timed(name, root, root, func() { err = n.Gossiper.Round(ctx) })
			if err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(t0)
		t.add(span{id: root, req: root, name: spanStep, start: ts, end: t.now()})
		return d, allocBytes() - a0, nil
	}

	g0 := clusterGossip(c)
	b0 := c.BytesOnWire()
	for res.rounds < roundBudget(sz.gossipN) && !res.converged {
		d, alloc, err := step(spanRound)
		if err != nil {
			return res, err
		}
		res.rounds++
		res.divergent += d
		res.alloc += alloc
		complete := true
		for i, n := range c.Nodes {
			offer, err := n.Service.SyncOffer()
			if err != nil {
				return res, err
			}
			if got := len(offer.Have); got > held[i] {
				res.delays = append(res.delays, weighted{value: us(res.divergent), weight: got - held[i]})
				res.copies += got - held[i]
				held[i] = got
			}
			complete = complete && held[i] == total
		}
		if complete {
			if res.converged, err = c.Converged(); err != nil {
				return res, err
			}
		}
	}
	g1 := clusterGossip(c)
	res.bytes = c.BytesOnWire() - b0
	res.exchanges, res.inSync = g1.Exchanges-g0.Exchanges, g1.InSync-g0.InSync
	res.shipped = g1.RecordsSent + g1.RecordsReceived - g0.RecordsSent - g0.RecordsReceived
	if !res.converged {
		return res, nil
	}
	for r := 0; r < sz.idleRounds; r++ {
		if _, _, err := step(spanIdleRound); err != nil {
			return res, err
		}
	}
	g2 := clusterGossip(c)
	res.idleExch, res.idleSync = g2.Exchanges-g1.Exchanges, g2.InSync-g1.InSync
	if res.idleOK, err = c.Converged(); err != nil {
		return res, err
	}
	if probe != nil {
		if err := probe(c); err != nil {
			return res, err
		}
	}
	return res, nil
}

// gossipTotals sums the gossip counters of every node.
type gossipTotals struct {
	Exchanges, InSync, RecordsSent, RecordsReceived uint64
}

func clusterGossip(c *gossiptest.Cluster) gossipTotals {
	var g gossipTotals
	for _, n := range c.Nodes {
		st := n.Gossiper.Stats()
		g.Exchanges += st.Exchanges
		g.InSync += st.InSync
		g.RecordsSent += st.RecordsSent
		g.RecordsReceived += st.RecordsReceived
	}
	return g
}

// runGossip is gossip-n20: episodes back to back for d.
func runGossip(ctx context.Context, e *env, d time.Duration, t *tracer) (*outcome, error) {
	o := newOutcome()
	sz := e.sz
	var p *storeProbe
	if t != nil {
		var err error
		if p, err = newStoreProbe(e); err != nil {
			return nil, err
		}
		defer p.close()
	}
	var (
		setups, converge []float64
		delays           []weighted
		rounds, copies   int
		divergent        time.Duration
		alloc, wire      uint64
		exch, inSync     uint64
		shipped          uint64
		idleExch, idleIn uint64
		episodes         int
	)
	// Set-up alone, repeated, on top of each episode's own: the median
	// needs more samples than a run has episodes.
	for r := 0; r < sz.setupReps; r++ {
		dir := e.subdir("setup")
		runtime.GC() // no collection left running from earlier work
		start := time.Now()
		c, err := gossiptest.New(dir, gossiptest.Config{N: sz.gossipN, Fanout: 2, Seed: clusterSeed(r)})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if err := c.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(d)
	for ep := 0; ep == 0 || time.Now().Before(deadline); ep++ {
		var probe func(*gossiptest.Cluster) error
		if p != nil {
			probe = p.run
		}
		res, err := runEpisode(ctx, e, ep, t, probe)
		if err != nil {
			return nil, err
		}
		episodes++
		o.check(res.converged && res.idleOK, "episode %d: converged=%v after %d rounds (budget %d), still in sync after idle rounds=%v",
			ep, res.converged, res.rounds, roundBudget(sz.gossipN), res.idleOK)
		setups = append(setups, res.setup.Seconds())
		converge = append(converge, ms(res.divergent))
		delays = append(delays, res.delays...)
		rounds += res.rounds
		copies += res.copies
		divergent += res.divergent
		alloc += res.alloc
		wire += res.bytes
		exch += res.exchanges
		inSync += res.inSync
		shipped += res.shipped
		idleExch += res.idleExch
		idleIn += res.idleSync
	}
	needed := float64(episodes * sz.gossipN * (sz.gossipN - 1) * sz.gossipRecords)
	o.metrics["setup_s"] = median(setups)
	o.metrics["ops_per_s"] = float64(copies) / divergent.Seconds()
	o.metrics["latency_p50_us"] = weightedQuantile(delays, 0.50)
	o.metrics["latency_p95_us"] = weightedQuantile(delays, 0.95)
	o.metrics["alloc_bytes_per_op"] = ratio(float64(alloc), float64(copies))
	o.metrics["wire_bytes_per_op"] = ratio(float64(wire), float64(copies))
	o.metrics["latency.samples"] = float64(copies)
	o.metrics["gossip.converge_rounds"] = float64(rounds) / float64(episodes)
	o.metrics["gossip.converge_ms"] = median(converge)
	o.metrics["gossip.bytes_per_exchange"] = ratio(float64(wire), float64(exch))
	o.metrics["gossip.in_sync_ratio_divergent"] = ratio(float64(inSync), float64(exch))
	o.metrics["gossip.in_sync_ratio_idle"] = ratio(float64(idleIn), float64(idleExch))
	o.metrics["gossip.redundant_delivery_ratio"] = ratio(float64(shipped), needed)
	if t != nil {
		o.metrics["gossip.round_ms"] = median(t.durationsUS(spanRound)) / 1e3
		p.report(o)
	}
	return o, nil
}

// storeProbe times the replication layers directly on a converged
// federation: the manifest (Service.SyncOffer), a delta of one node's
// worth of records (Service.ServeSyncOffer), its ingestion into a sink
// authority (Service.IngestDelta), and Ed25519 signing and verification
// of a delta digest of that size.
type storeProbe struct {
	sink                                  *service.Service
	key                                   *identity.KeyPair
	manifest, delta, ingest, sign, verify []float64
	failures                              []string
}

func newStoreProbe(e *env) (*storeProbe, error) {
	key, err := identity.NewKeyPairFrom(rand.New(rand.NewSource(e.seed)))
	if err != nil {
		return nil, err
	}
	sink, err := service.New(service.Config{ID: "perfbench-sink", PersistPath: e.subdir("sink")})
	if err != nil {
		return nil, err
	}
	return &storeProbe{sink: sink, key: key}, nil
}

func (p *storeProbe) close() { _ = p.sink.Close() }

func (p *storeProbe) run(c *gossiptest.Cluster) error {
	svc := c.Nodes[0].Service
	t0 := time.Now()
	offer, err := svc.SyncOffer()
	if err != nil {
		return err
	}
	p.manifest = append(p.manifest, us(time.Since(t0)))

	// The offer minus one node's worth of keys asks for a delta of the
	// size a node ships when it first spreads its records.
	want := len(offer.Have) / len(c.Nodes)
	sort.Slice(offer.Have, func(i, j int) bool { return bytes.Compare(offer.Have[i].Key, offer.Have[j].Key) < 0 })
	offer.Have = offer.Have[want:]
	t0 = time.Now()
	delta, err := svc.ServeSyncOffer(offer)
	if err != nil {
		return err
	}
	p.delta = append(p.delta, us(time.Since(t0)))
	t0 = time.Now()
	n, err := p.sink.IngestDelta(offer, delta)
	if err != nil {
		return err
	}
	p.ingest = append(p.ingest, us(time.Since(t0)))
	if delta.Count != want || n != want {
		p.failures = append(p.failures, fmt.Sprintf("delta of %d records, %d ingested, want %d", delta.Count, n, want))
	}

	for r := 0; r < 8; r++ {
		t0 = time.Now()
		digest := identity.SyncDeltaDigest(identity.Hash{}, delta.Records, p.key.ID())
		sig := p.key.Sign(digest)
		p.sign = append(p.sign, us(time.Since(t0)))
		t0 = time.Now()
		digest = identity.SyncDeltaDigest(identity.Hash{}, delta.Records, p.key.ID())
		err := identity.Verify(p.key.ID(), digest, sig)
		p.verify = append(p.verify, us(time.Since(t0)))
		if err != nil {
			p.failures = append(p.failures, err.Error())
		}
	}
	return nil
}

func (p *storeProbe) report(o *outcome) {
	o.metrics["store.manifest_us"] = median(p.manifest)
	o.metrics["store.delta_us"] = median(p.delta)
	o.metrics["store.ingest_us"] = median(p.ingest)
	o.metrics["identity.sign_us"] = median(p.sign)
	o.metrics["identity.verify_sig_us"] = median(p.verify)
	o.check(len(p.failures) == 0, "store probe: %v", p.failures)
}
