package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rationality/internal/core"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// streamAdmission is on but never exhausted: its batch budget is far
// above what one closed-loop client can offer.
var streamAdmission = service.AdmissionConfig{
	InteractiveRate: 1e9,
	BatchRate:       1e9,
}

// runStream is stream-10k: one client sends back-to-back verify-stream
// requests of fresh items over TCP to an authority without persistence.
func runStream(ctx context.Context, e *env, d time.Duration, t *tracer) (*outcome, error) {
	o := newOutcome()
	sz := e.sz
	cfg := service.Config{ID: "perfbench", Admission: streamAdmission}

	// Set-up is New, listen, dial and a first small stream that warms the
	// connection and the stream path, as the hot set does on verify-hot.
	warm := e.gen.items("warm", sz.hot)
	warmAnns := make([]core.Announcement, len(warm))
	for i := range warm {
		warmAnns[i] = warm[i].ann
	}
	var setups []float64
	var a *authority
	for r := 0; r < sz.setupReps; r++ {
		runtime.GC() // no collection left running from earlier work
		start := time.Now()
		auth, err := startAuthority(cfg, nil, 1)
		if err != nil {
			return nil, err
		}
		if err := checkedStream(ctx, o, auth.clients[0], warm, warmAnns, nil); err != nil {
			_ = auth.close()
			return nil, err
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

	items := make([]item, sz.streamItems)
	anns := make([]core.Announcement, sz.streamItems)
	before := a.svc.Stats()
	// Per stream: items per second, time to first verdict, and the 95th
	// percentile of the gaps between consecutive verdict frames; each is
	// reported as the median over the run's streams.
	var rate, ttfv, gapP95 []float64
	gaps := make([]float64, 0, sz.streamItems)
	var alloc uint64
	delivered := 0
	deadline := time.Now().Add(d)
	for s := 0; time.Now().Before(deadline) || s == 0; s++ {
		for i := range items {
			e.gen.fill(&items[i], "stream", s*sz.streamItems+i)
			anns[i] = items[i].ann
		}
		root := t.newID()
		alloc0 := allocBytes()
		start := time.Now()
		var first, last time.Time
		gaps = gaps[:0]
		seen := 0
		err := checkedStream(ctx, o, a.clients[0], items, anns, func() {
			now := time.Now()
			if seen == 0 {
				first = now
			} else {
				gaps = append(gaps, us(now.Sub(last)))
			}
			last = now
			seen++
		})
		elapsed := time.Since(start)
		alloc += allocBytes() - alloc0
		if err != nil {
			o.add(int64(len(items)), int64(len(items)), []string{fmt.Sprintf("stream %d: %v", s, err)})
			continue
		}
		if seen == 0 {
			continue
		}
		if t != nil {
			ts := t.now() - int64(elapsed)
			t.add(span{id: root, req: root, name: spanStream, start: ts, end: t.now()})
			t.add(span{id: t.newID(), parent: root, req: root, name: spanTTFV, start: ts, end: ts + int64(first.Sub(start))})
		}
		ttfv = append(ttfv, us(first.Sub(start)))
		rate = append(rate, float64(seen)/elapsed.Seconds())
		gapP95 = append(gapP95, quantile(gaps, 0.95))
		delivered += seen
	}
	after := a.svc.Stats()

	o.metrics["ops_per_s"] = median(rate)
	o.metrics["latency_p50_us"] = median(ttfv)
	o.metrics["latency_p95_us"] = median(gapP95)
	o.metrics["alloc_bytes_per_op"] = ratio(float64(alloc), float64(delivered))
	o.metrics["stream.ttfv_samples"] = float64(len(ttfv))
	o.metrics["latency.samples"] = float64(delivered)
	serviceCounts(o, before, after)
	if after.Admission != nil {
		shed := after.Admission.Batch.ShedItems - before.Admission.Batch.ShedItems
		// Admitted items are the verifications the service ran: hits
		// plus misses, by the admission conservation law.
		o.metrics["service.admitted_items"] = o.metrics["service.cache_lookups"]
		o.check(shed == 0, "admission shed %d stream items", shed)
	}
	// Exact bytes on the wire for one more stream of the same size.
	wire, err := replayStreamBytes(ctx, o, e, a.svc, items, anns)
	if err != nil {
		return nil, err
	}
	o.metrics["wire_bytes_per_op"] = wire

	if t != nil {
		var enc, dec []float64
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			msg, err := transport.NewMessage(service.MsgVerifyStream, service.BatchVerifyRequest{Announcements: anns})
			if err != nil {
				return nil, err
			}
			enc = append(enc, ms(time.Since(t0)))
			var br service.BatchVerifyRequest
			t0 = time.Now()
			if err := msg.Decode(&br); err != nil {
				return nil, err
			}
			dec = append(dec, ms(time.Since(t0)))
		}
		o.metrics["stream.request_encode_ms"] = median(enc)
		o.metrics["stream.request_decode_ms"] = median(dec)
		if _, err := probeProcedures(o, items[:min(e.sz.probes, len(items))]); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// replayStreamBytes streams a fresh batch of the same size over PipeNet
// and returns the bytes moved per item.
func replayStreamBytes(ctx context.Context, o *outcome, e *env, svc *service.Service, items []item, anns []core.Announcement) (float64, error) {
	for i := range items {
		e.gen.fill(&items[i], "stream-replay", i)
		anns[i] = items[i].ann
	}
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
	if err := checkedStream(ctx, o, pc, items, anns, nil); err != nil {
		return 0, err
	}
	return ratio(float64(pn.BytesOnWire()), float64(len(items))), nil
}

// checkedStream runs one verify-stream of items, calling frame (when
// non-nil) as each verdict arrives. Every item counts: a wrong verdict or
// a missing frame fails it, and a trailer reporting truncation or a short
// delivery fails the whole stream.
func checkedStream(ctx context.Context, o *outcome, c transport.StreamCaller, items []item, anns []core.Announcement, frame func()) error {
	wrong, frames := 0, 0
	tr, err := service.StreamVerify(ctx, c, anns, func(sv service.StreamVerdict) error {
		if frame != nil {
			frame()
		}
		frames++
		if sv.Index < 0 || sv.Index >= len(items) || sv.Verdict.Accepted != items[sv.Index].accept {
			wrong++
		}
		return nil
	})
	if err != nil {
		return err
	}
	bad := wrong + len(items) - frames
	if tr.Truncated || tr.Items != len(items) || tr.Delivered != tr.Items || frames != tr.Delivered {
		bad = len(items)
	}
	var p []string
	if bad > 0 {
		p = []string{fmt.Sprintf("stream of %d: %d wrong, %d frames, trailer delivered %d, truncated=%v %s",
			len(items), wrong, frames, tr.Delivered, tr.Truncated, tr.Reason)}
	}
	o.add(int64(len(items)), int64(bad), p)
	return nil
}

// probeProcedures times the registered procedures directly on items,
// reports the median per format, and returns each item's time.
func probeProcedures(o *outcome, items []item) ([]time.Duration, error) {
	reg := core.NewProcedureRegistry()
	byKind := map[string][]float64{}
	took := make([]time.Duration, len(items))
	for k := range items {
		it := &items[k]
		proc, err := reg.Lookup(it.ann.Format)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		v, err := proc.Verify(it.ann.Game, it.ann.Advice, it.ann.Proof)
		took[k] = time.Since(t0)
		byKind[it.kind] = append(byKind[it.kind], us(took[k]))
		o.check(err == nil && v.Accepted == it.accept, "procedure %s: accepted!=%v err=%v", it.ann.Format, it.accept, err)
	}
	o.metrics["core.p1_verify_us"] = median(byKind["p1"])
	o.metrics["core.enum_verify_us"] = median(byKind["enum"])
	return took, nil
}
