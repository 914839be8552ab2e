package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/service"
	"rationality/internal/store"
	"rationality/internal/transport"
)

// authority is one verification service served over loopback TCP with
// one dedicated client connection per benchmark client.
type authority struct {
	svc     *service.Service
	srv     *transport.TCPServer
	clients []*transport.TCPClient
}

func startAuthority(cfg service.Config, t *tracer, clients int) (*authority, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	a := &authority{svc: svc}
	var h transport.Handler = svc
	if t != nil {
		h = tracedHandler{svc: svc, t: t}
	}
	if a.srv, err = transport.ListenTCP("127.0.0.1:0", h); err != nil {
		_ = svc.Close()
		return nil, err
	}
	for i := 0; i < clients; i++ {
		c, err := transport.DialTCP(a.srv.Addr(), 5*time.Second)
		if err != nil {
			_ = a.close()
			return nil, err
		}
		a.clients = append(a.clients, c)
	}
	return a, nil
}

func (a *authority) close() error {
	for _, c := range a.clients {
		_ = c.Close() // client teardown cannot lose data
	}
	_ = a.srv.Close()
	return a.svc.Close()
}

// verifyCall runs one unary verification the way an agent does: encode
// the request, call over the transport, decode the verdict. Traced, it
// records the request's spans; req is the request id.
func verifyCall(ctx context.Context, c transport.Client, it *item, t *tracer) (bool, error) {
	root := t.newID()
	start := t.now()
	var msg transport.Message
	var err error
	t.timed(spanEncode, root, root, func() { msg, err = transport.NewMessage(core.MsgVerify, it.request()) })
	if err != nil {
		return false, err
	}
	var resp transport.Message
	if t == nil {
		resp, err = c.Call(ctx, msg)
	} else {
		callID := t.newID()
		t.linkCall(msg.Payload, callID, root)
		cs := t.now()
		resp, err = c.Call(ctx, msg)
		t.add(span{id: callID, parent: root, req: root, name: spanCall, start: cs, end: t.now()})
	}
	if err != nil {
		return false, err
	}
	var vr core.VerifyResponse
	t.timed(spanDecode, root, root, func() { err = resp.Decode(&vr) })
	t.add(span{id: root, req: root, name: spanRequest, start: start, end: t.now()})
	if err != nil {
		return false, err
	}
	return vr.Verdict.Accepted == it.accept, nil
}

// checkedCall is verifyCall with the result counted in o.
func checkedCall(ctx context.Context, o *outcome, c transport.Client, it *item, t *tracer) {
	ok, err := verifyCall(ctx, c, it, t)
	o.check(err == nil && ok, "verify %s %.48s: accepted!=%v err=%v", it.ann.Format, it.ann.Game, it.accept, err)
}

// buildFixture fills a warm-start store with sz.fixture fresh verdicts,
// once per run; every verify-cold set-up copies it.
func buildFixture(ctx context.Context, e *env) (string, error) {
	dir := filepath.Join(e.dir, "fixture")
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	svc, err := service.New(service.Config{ID: "perfbench-fixture", PersistPath: dir})
	if err != nil {
		return "", err
	}
	var it item
	for k := 0; k < e.sz.fixture; k++ {
		e.gen.fill(&it, "fixture", k)
		if _, err := svc.Verify(ctx, it.request()); err != nil {
			_ = svc.Close()
			return "", err
		}
	}
	return dir, svc.Close()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}

// runUnary is verify-hot (cold=false) and verify-cold (cold=true):
// closed-loop clients, each on its own connection, send unary verify
// requests for d.
func runUnary(ctx context.Context, e *env, cold bool, d time.Duration, t *tracer) (*outcome, error) {
	o := newOutcome()
	sz := e.sz
	hot := e.gen.items("hot", sz.hot)
	var fixture string
	if cold {
		var err error
		if fixture, err = buildFixture(ctx, e); err != nil {
			return nil, err
		}
	}

	// Set-up, repeated: service.New (with warm-start replay on
	// verify-cold), listen, dial, and the hot-set warm-up on verify-hot.
	// The last authority built serves the timed phase.
	var setups []float64
	var a *authority
	for r := 0; r < sz.setupReps; r++ {
		cfg := service.Config{ID: "perfbench"}
		if cold {
			cfg.PersistPath = e.subdir("cold")
			if err := copyDir(fixture, cfg.PersistPath); err != nil {
				return nil, err
			}
		}
		runtime.GC() // no collection left running from earlier work
		start := time.Now()
		auth, err := startAuthority(cfg, t, sz.clients)
		if err != nil {
			return nil, err
		}
		if !cold {
			for i := range hot {
				checkedCall(ctx, o, auth.clients[0], &hot[i], t)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		if r < sz.setupReps-1 {
			if err := auth.close(); err != nil {
				return nil, err
			}
		} else {
			a = auth
		}
	}
	defer a.close()
	o.metrics["setup_s"] = median(setups)

	// Timed phase: closed loop, each client waits for its reply before
	// sending the next request. verify-hot cycles the warmed hot set;
	// verify-cold sends fresh content every time.
	before := a.svc.Stats()
	lat := make([][]sample, len(a.clients))
	expect := int(d.Seconds()*40_000)/len(a.clients) + 1024
	for c := range lat {
		lat[c] = make([]sample, 0, expect)
	}
	var wg sync.WaitGroup
	alloc0 := allocBytes()
	begin := time.Now().Add(10 * time.Millisecond)
	for c := range a.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := a.clients[c]
			var it item
			var attempted, failed int64
			var problems []string
			deadline := begin.Add(d)
			time.Sleep(time.Until(begin))
			for k := c; ; k += len(a.clients) {
				cur := &it
				if cold {
					e.gen.fill(&it, "cold", k)
				} else {
					cur = &hot[splitmix64(uint64(e.seed)^uint64(k))%uint64(len(hot))]
				}
				t0 := time.Now()
				if t0.After(deadline) {
					break
				}
				ok, err := verifyCall(ctx, client, cur, t)
				t1 := time.Now()
				lat[c] = append(lat[c], sample{at: t1.Sub(begin), took: t1.Sub(t0)})
				attempted++
				if err != nil || !ok {
					failed++
					if len(problems) < 5 {
						problems = append(problems, fmt.Sprintf("verify %.48s: accepted!=%v err=%v", cur.ann.Game, cur.accept, err))
					}
				}
			}
			o.add(attempted, failed, problems)
		}(c)
	}
	wg.Wait()
	alloc := allocBytes() - alloc0
	after := a.svc.Stats()

	var all []sample
	for _, l := range lat {
		all = append(all, l...)
	}
	windowed(o, all, d)
	o.metrics["alloc_bytes_per_op"] = ratio(float64(alloc), float64(len(all)))
	o.metrics["latency.samples"] = float64(len(all))
	serviceCounts(o, before, after)

	// Exact bytes on the wire: replay requests of the same kind over an
	// in-memory network that counts every byte written.
	replay := hot
	if cold {
		replay = e.gen.items("replay", sz.replay)
	}
	wire, err := replayBytes(ctx, o, a.svc, replay)
	if err != nil {
		return nil, err
	}
	o.metrics["wire_bytes_per_op"] = wire

	if t != nil {
		o.metrics["transport.call_us_p50"] = median(t.durationsUS(spanCall))
		o.metrics["transport.self_us_p50"] = median(t.selfUS(spanCall))
		o.metrics["service.handle_us_p50"] = median(t.durationsUS(spanHandle))
		if err := probeUnary(ctx, e, o, a.svc, hot, cold, fixture); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// replayBytes sends every item once over a PipeNet connection to svc and
// returns the bytes moved per request.
func replayBytes(ctx context.Context, o *outcome, svc *service.Service, items []item) (float64, error) {
	pn := transport.NewPipeNet()
	defer pn.Close()
	if err := pn.Listen("authority", svc); err != nil {
		return 0, err
	}
	pc, err := pn.Dial("authority")
	if err != nil {
		return 0, err
	}
	defer pc.Close()
	for i := range items {
		checkedCall(ctx, o, pc, &items[i], nil)
	}
	return ratio(float64(pn.BytesOnWire()), float64(len(items))), nil
}

// serviceCounts derives the service and store ratios from two Stats
// snapshots bracketing the timed phase.
func serviceCounts(o *outcome, before, after service.Stats) {
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	dedup := float64(after.Deduplicated - before.Deduplicated)
	o.metrics["service.cache_lookups"] = hits + misses
	o.metrics["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	o.metrics["service.dedup_ratio"] = ratio(dedup, misses)
	o.metrics["service.peak_inflight"] = float64(after.PeakInFlight)
	if after.Admission != nil && before.Admission != nil {
		a, b := after.Admission, before.Admission
		o.metrics["service.admission_shed"] = float64(a.Batch.ShedItems + a.Interactive.ShedItems -
			b.Batch.ShedItems - b.Interactive.ShedItems)
	}
	if after.Persistence != nil && before.Persistence != nil {
		fresh := misses - dedup
		o.metrics["store.fresh_verdicts"] = fresh
		o.metrics["store.persisted_ratio"] = ratio(float64(after.Persistence.Persisted-before.Persistence.Persisted), fresh)
		o.metrics["store.dropped"] = float64(after.Persistence.Dropped - before.Persistence.Dropped)
	}
}

// probeUnary times the layers directly, on the workload's own inputs:
// Service.Handle against Service.Verify (the codec), Service.Verify,
// identity.DigestBytes and the registered procedures; on verify-cold
// also the miss path's overhead over the procedure and store.Open on the
// warm-start fixture.
func probeUnary(ctx context.Context, e *env, o *outcome, svc *service.Service, hot []item, cold bool, fixture string) error {
	items := make([]item, e.sz.probes)
	for k := range items {
		if cold {
			items[k] = e.gen.item("probe", k)
		} else {
			items[k] = hot[k%len(hot)]
		}
	}
	procTook, err := probeProcedures(o, items)
	if err != nil {
		return err
	}
	var verify, codec, digest, missOver []float64
	for k := range items {
		it := &items[k]
		req := it.request()
		t0 := time.Now()
		identity.DigestBytes([]byte(req.Format), req.Game, req.Advice, req.Proof)
		digest = append(digest, us(time.Since(t0)))

		t0 = time.Now()
		v, err := svc.Verify(ctx, req)
		dv := time.Since(t0)
		o.check(err == nil && v.Accepted == it.accept, "service verify %s: accepted!=%v err=%v", req.Format, it.accept, err)
		verify = append(verify, us(dv))
		if cold {
			missOver = append(missOver, us(dv-procTook[k]))
			continue
		}
		msg, err := transport.NewMessage(core.MsgVerify, req)
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, err = svc.Handle(ctx, msg)
		dh := time.Since(t0)
		o.check(err == nil, "service handle: %v", err)
		codec = append(codec, us(dh-dv))
	}
	o.metrics["service.verify_us_p50"] = median(verify)
	o.metrics["identity.digest_us"] = median(digest)
	if !cold {
		o.metrics["service.codec_us_p50"] = median(codec)
		return nil
	}
	o.metrics["service.miss_overhead_us"] = median(missOver)
	var opens []float64
	for r := 0; r < 3; r++ {
		dir := e.subdir("open")
		if err := copyDir(fixture, dir); err != nil {
			return err
		}
		t0 := time.Now()
		st, _, err := store.Open(dir, store.Options{MaxLive: service.DefaultCacheSize, CompactAt: service.DefaultCacheSize / 4})
		if err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(t0)))
		if err := st.Close(); err != nil {
			return err
		}
	}
	o.metrics["store.open_ms"] = median(opens)
	return nil
}
