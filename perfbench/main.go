// Command perfbench is the repository's end-to-end benchmark. It drives
// real verification authorities through one seeded workload, checks every
// verdict, stream trailer and gossip episode, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer split) as one JSON object on
// the last line of standard output.
//
//	go run . --workload verify-hot --seed 1 --seconds 10 --trace 0
//
// run.sh builds and runs it from the repository root with the Go caches
// kept inside the checkout. README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricUnits names every metric the benchmark prints and its unit.
var metricUnits = map[string]string{
	// End-to-end (--trace 0).
	"setup_s":            "s",
	"ops_per_s":          "1/s",
	"latency_p50_us":     "us",
	"latency_p95_us":     "us",
	"alloc_bytes_per_op": "B",
	"wire_bytes_per_op":  "B",
	// Per-layer (--trace 1).
	"transport.call_us_p50":           "us",
	"transport.self_us_p50":           "us",
	"service.handle_us_p50":           "us",
	"service.codec_us_p50":            "us",
	"service.verify_us_p50":           "us",
	"service.miss_overhead_us":        "us",
	"identity.digest_us":              "us",
	"core.p1_verify_us":               "us",
	"core.enum_verify_us":             "us",
	"service.cache_hit_ratio":         "ratio",
	"service.cache_lookups":           "count",
	"service.dedup_ratio":             "ratio",
	"service.peak_inflight":           "count",
	"service.admission_shed":          "count",
	"service.admitted_items":          "count",
	"store.persisted_ratio":           "ratio",
	"store.fresh_verdicts":            "count",
	"store.dropped":                   "count",
	"store.open_ms":                   "ms",
	"stream.request_encode_ms":        "ms",
	"stream.request_decode_ms":        "ms",
	"stream.ttfv_samples":             "count",
	"gossip.round_ms":                 "ms",
	"gossip.converge_rounds":          "rounds",
	"gossip.converge_ms":              "ms",
	"gossip.bytes_per_exchange":       "B",
	"gossip.in_sync_ratio_divergent":  "ratio",
	"gossip.in_sync_ratio_idle":       "ratio",
	"gossip.redundant_delivery_ratio": "ratio",
	"store.delta_us":                  "us",
	"store.ingest_us":                 "us",
	"store.manifest_us":               "us",
	"identity.sign_us":                "us",
	"identity.verify_sig_us":          "us",
	"latency.samples":                 "count",
	"tracing.spans":                   "count",
}

// endToEnd lists the end-to-end metrics; each has a tracing overhead.
var endToEnd = []string{"setup_s", "ops_per_s", "latency_p50_us", "latency_p95_us", "alloc_bytes_per_op", "wire_bytes_per_op"}

// higherIsBetter marks the end-to-end metrics that improve upward.
var higherIsBetter = map[string]bool{"ops_per_s": true}

func init() {
	for _, m := range endToEnd {
		metricUnits["tracing.overhead_pct."+m] = "%"
	}
}

// sizes scales a workload. The smoke sizes run the same code on inputs
// small enough for the package tests.
type sizes struct {
	perShape      int // templates per game shape
	hot           int // hot-set announcements (verify-hot)
	clients       int // closed-loop clients and connections (unary)
	fixture       int // fresh verdicts in the warm-start store (verify-cold)
	streamItems   int // items per verify-stream request
	gossipN       int // authorities in the gossip federation
	gossipRecords int // records each authority starts with
	idleRounds    int // in-sync rounds after each convergence
	setupReps     int // set-ups per run; setup_s is their median
	replay        int // requests replayed over PipeNet for wire bytes
	probes        int // samples per direct layer probe (traced run)
}

func fullSizes() sizes {
	return sizes{
		perShape: 48, hot: 256, clients: min(2, runtime.NumCPU()), fixture: 1500,
		streamItems: 10_000, gossipN: 20, gossipRecords: 16, idleRounds: 3,
		setupReps: 7, replay: 1024, probes: 512,
	}
}

func smokeSizes() sizes {
	return sizes{
		perShape: 3, hot: 24, clients: min(2, runtime.NumCPU()), fixture: 40,
		streamItems: 300, gossipN: 6, gossipRecords: 8, idleRounds: 2,
		setupReps: 2, replay: 16, probes: 16,
	}
}

// env is what one run shares between its passes: sizes, the seeded
// generator and a scratch directory inside the checkout.
type env struct {
	sz   sizes
	seed int64
	gen  *generator
	dir  string
	dirs int // directories handed out by subdir
}

// subdir names a fresh directory under the run's scratch directory.
func (e *env) subdir(name string) string {
	e.dirs++
	return filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, e.dirs))
}

// outcome is one pass over a workload: operations attempted and failed,
// the first failures, and the metrics measured.
type outcome struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// check counts one operation and records it as failed unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if !ok {
		o.failed++
		if len(o.problems) < 5 {
			o.problems = append(o.problems, fmt.Sprintf(format, args...))
		}
	}
}

// add merges per-client tallies.
func (o *outcome) add(attempted, failed int64, problems []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted += attempted
	o.failed += failed
	for _, p := range problems {
		if len(o.problems) < 5 {
			o.problems = append(o.problems, p)
		}
	}
}

// workloads maps each workload name to the function that runs one pass
// of it; t is nil on an untraced pass.
var workloads = map[string]func(ctx context.Context, e *env, d time.Duration, t *tracer) (*outcome, error){
	"verify-hot": func(ctx context.Context, e *env, d time.Duration, t *tracer) (*outcome, error) {
		return runUnary(ctx, e, false, d, t)
	},
	"verify-cold": func(ctx context.Context, e *env, d time.Duration, t *tracer) (*outcome, error) {
		return runUnary(ctx, e, true, d, t)
	},
	"stream-10k": runStream,
	"gossip-n20": runGossip,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: verify-hot, verify-cold, stream-10k or gossip-n20")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer split")
	smoke := fs.Bool("smoke", false, "run with small sizes (tests)")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench-work"), "directory for stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	fn, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	sz := fullSizes()
	if *smoke {
		sz = smokeSizes()
	}
	rep, problems, err := runWorkload(context.Background(), *name, fn, sz, *seed,
		time.Duration(*secs*float64(time.Second)), *trace == 1, *work)
	if err != nil {
		return 1, err
	}
	printReport(os.Stdout, *name, *seed, rep, problems)
	if !rep.Correct {
		return 1, fmt.Errorf("%d of %d operations failed", rep.Failed, rep.Attempted)
	}
	return 0, nil
}

// runWorkload runs one workload. Untraced, it is one pass of d reporting
// the end-to-end metrics. Traced, it is an untraced pass and a traced
// pass of d/2 each, reporting the per-layer metrics of the traced pass
// and how far tracing moved each end-to-end metric.
func runWorkload(ctx context.Context, name string, fn func(context.Context, *env, time.Duration, *tracer) (*outcome, error),
	sz sizes, seed int64, d time.Duration, traced bool, work string) (*report, []string, error) {
	dir, err := os.MkdirTemp(mkdirAll(work), "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	gen, err := newGenerator(seed, sz.perShape)
	if err != nil {
		return nil, nil, err
	}
	e := &env{sz: sz, seed: seed, gen: gen, dir: dir}
	// Start each pass from a collected heap, not midway through a cycle
	// that input generation set off.
	runtime.GC()
	if !traced {
		o, err := fn(ctx, e, d, nil)
		if err != nil {
			return nil, nil, err
		}
		return finish(o, endToEnd), o.problems, nil
	}
	base, err := fn(ctx, e, d/2, nil)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	t := newTracer()
	o, err := fn(ctx, e, d/2, t)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range endToEnd {
		delta := ratio(o.metrics[m]-base.metrics[m], base.metrics[m]) * 100
		if higherIsBetter[m] {
			delta = -delta
		}
		o.metrics["tracing.overhead_pct."+m] = delta
	}
	o.metrics["tracing.spans"] = float64(len(t.spans))
	o.attempted += base.attempted
	o.failed += base.failed
	o.problems = append(base.problems, o.problems...)
	path := filepath.Join(mkdirAll(work), fmt.Sprintf("spans-%s-seed%d.csv", name, seed))
	if err := t.write(path); err != nil {
		return nil, nil, err
	}
	var names []string
	for m := range metricUnits {
		if !isEndToEnd(m) {
			names = append(names, m)
		}
	}
	return finish(o, names), o.problems, nil
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp and Create report any failure
	return dir
}

func isEndToEnd(m string) bool {
	for _, e := range endToEnd {
		if e == m {
			return true
		}
	}
	return false
}

// finish keeps the named metrics; a metric the pass did not touch is 0,
// meaning the workload does not exercise that layer.
func finish(o *outcome, names []string) *report {
	r := &report{Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric)}
	r.Correct = o.failed == 0 && o.attempted > 0
	for _, m := range names {
		v := o.metrics[m]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[m] = metric{Value: v, Unit: metricUnits[m]}
	}
	return r
}

func printReport(w *os.File, name string, seed int64, r *report, problems []string) {
	fmt.Fprintf(w, "workload %s seed %d: %d of %d operations failed\n", name, seed, r.Failed, r.Attempted)
	for _, p := range problems {
		fmt.Fprintf(w, "  failure: %s\n", p)
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	line, _ := json.Marshal(r) // a report of plain numbers always encodes
	fmt.Fprintln(w, strings.TrimSpace(string(line)))
}
