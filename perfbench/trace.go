package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rationality/internal/service"
	"rationality/internal/transport"
)

// Span names. The server-side and layer names follow the stage words the
// in-program tracing is to use (decode, admission, digest, cache,
// procedure, store-enqueue, encode), prefixed with the module that owns
// the call.
const (
	spanRequest      = "client.request"
	spanEncode       = "client.encode"
	spanCall         = "transport.call"
	spanDecode       = "client.decode"
	spanHandle       = "service.handle"
	spanStream       = "client.stream"
	spanTTFV         = "stream.first_verdict"
	spanStep         = "gossip.step"
	spanRound        = "gossip.round"
	spanIdleRound    = "gossip.round_idle"
	maxSpansInMemory = 400_000
)

// span is one timed call: a name, start and end in nanoseconds since the
// tracer's epoch, the span that caused it (0 for a root) and the request
// it belongs to.
type span struct {
	id, parent, req int64
	name            string
	start, end      int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer holds spans in memory for the traced run and writes them out
// when the run ends. A nil *tracer is the untraced run: every method is a
// no-op, so the workload code is the same in both runs.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span // at most maxSpansInMemory; later spans are not kept
	// calls maps a request payload's hash to the client call span that
	// sent it, so the server-side span can name its parent.
	calls map[uint64][2]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), calls: make(map[uint64][2]int64)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpansInMemory {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, req int64, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.newID()
	start := t.now()
	fn()
	t.add(span{id: id, parent: parent, req: req, name: name, start: start, end: t.now()})
}

func payloadHash(p []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(p)
	return h.Sum64()
}

func (t *tracer) linkCall(payload []byte, callID, req int64) {
	t.mu.Lock()
	t.calls[payloadHash(payload)] = [2]int64{callID, req}
	t.mu.Unlock()
}

func (t *tracer) callFor(payload []byte) (callID, req int64) {
	h := payloadHash(payload)
	t.mu.Lock()
	c := t.calls[h]
	t.mu.Unlock()
	return c[0], c[1]
}

// tracedHandler is the benchmark-side transport.Handler that records a
// service.handle span around Service.Handle, parented to the client's
// transport.call span for the same payload.
type tracedHandler struct {
	svc *service.Service
	t   *tracer
}

func (h tracedHandler) Handle(ctx context.Context, req transport.Message) (transport.Message, error) {
	parent, reqID := h.t.callFor(req.Payload)
	var resp transport.Message
	var err error
	h.t.timed(spanHandle, parent, reqID, func() { resp, err = h.svc.Handle(ctx, req) })
	return resp, err
}

// durationsUS returns the durations of every span named name, in µs.
func (t *tracer) durationsUS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfUS returns, for every span named name, its duration minus the part
// of its interval that its child spans cover, in µs.
func (t *tracer) selfUS(name string) []float64 {
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.name != name {
			continue
		}
		out = append(out, float64(s.dur()-covered(s, children[s.id]))/1e3)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write dumps every span as CSV: id,parent,req,name,start_ns,end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
