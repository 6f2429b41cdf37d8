// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks every output against
// seq.CopyModel, and prints the metrics named in BENCHMARK.json, one
// human-readable line each, then a final JSON line:
//
//	bash perfbench/run.sh --workload mem_default_text --seed 1 --seconds 60 --trace 0
//
// With --trace 0 the workload execs the real binaries (pagen, pa-serve
// and its pa-tcp ranks) untraced and reports the end-to-end metrics.
// With --trace 1 it calls the layers' public functions in process (or,
// for serve_jobs, the daemon's HTTP API) with a span around each call,
// and reports the per-layer metrics. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are the benchmark's inputs. N and JobN are fixed by the
// workload definitions (pagenN, jobN); only the self-test, which runs
// every workload at tiny sizes, sets them otherwise.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Root     string // repository checkout (working directory)
	Bin      string // directory holding pagen, pa-serve, pa-tcp
	Work     string // scratch space for outputs and records
	N        int64  // nodes per pagen run
	JobN     int64  // nodes per pa-serve job
}

// The workloads' sizes, as BENCHMARK.json defines them.
const (
	pagenN = 2_000_000 // nodes per pagen run
	jobN   = 200_000   // nodes per pa-serve job
)

func (o options) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(o.Seconds * float64(time.Second)))
}

type workload struct {
	name   string
	why    string
	run    func(o options, r *report) error // untraced, end-to-end metrics
	traced func(o options, r *report, t *tracer) error
}

var workloads = []workload{
	{name: "mem_default_text", why: "pagen at its defaults, text output: multi-rank engine, shm transport, hub cache, in-memory merge and text encode",
		run: runMemDefault, traced: traceMemDefault},
	{name: "serve_jobs", why: "pa-serve closed loop, 2 clients x 2-rank jobs on 2 slots: TCP ranks, msg codec, process spawn, jobqueue admission, download",
		run: runServe, traced: traceServe},
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload name")
	flag.Uint64Var(&o.Seed, "seed", 1, "workload seed: every input is derived from it")
	flag.Float64Var(&o.Seconds, "seconds", 60, "measurement time")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.Root, "root", ".", "repository checkout")
	flag.StringVar(&o.Bin, "bin", "", "directory with the pagen, pa-serve and pa-tcp binaries")
	flag.StringVar(&o.Work, "work", "", "scratch directory for outputs and run records")
	flag.Parse()
	o.N, o.JobN = pagenN, jobN
	o.Trace = trace == 1
	cleanupOnSignal()
	r, err := run(o)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.print(os.Stdout)
}

func run(o options) (*report, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.Workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown --workload %q", o.Workload)
	}
	if o.Bin == "" || o.Work == "" {
		return nil, fmt.Errorf("-bin and -work are required (perfbench/run.sh sets them)")
	}
	for _, b := range []string{"pagen", "pa-serve", "pa-tcp"} {
		if _, err := os.Stat(filepath.Join(o.Bin, b)); err != nil {
			return nil, fmt.Errorf("binary %s: %w", b, err)
		}
	}
	if err := os.MkdirAll(o.Work, 0o755); err != nil {
		return nil, err
	}
	r := &report{Workload: w.name, Why: w.why, Seed: o.Seed, Traced: o.Trace, Host: hostFacts(o.Root)}
	var err error
	if o.Trace {
		t := newTracer()
		err = w.traced(o, r, t)
		r.Spans, r.LayerSelfS = t.finish()
		if err == nil {
			r.set("trace.unaccounted_frac", unaccountedFrac(r.Spans, rootSpan),
				"operation wall not covered by any layer span")
		}
	} else {
		err = w.run(o, r)
	}
	if err != nil {
		return nil, err
	}
	want := endToEnd
	if o.Trace {
		want = perLayer
	}
	if err := r.complete(want); err != nil {
		return nil, err
	}
	return r, r.save(filepath.Join(o.Work, fmt.Sprintf("record-%s-seed%d-traced-%v.json", w.name, o.Seed, o.Trace)))
}

// metricDef names a metric and its unit; the lists match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"edges_per_s", "edges/s"},
	{"speedup_vs_seq", "x"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_tail_s", "s"},
	{"jobs_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"seq.gen_s", "s"}, {"seq.ns_per_edge", "ns"},
	{"core.gen_s", "s"}, {"core.ns_per_edge", "ns"}, {"core.busy_frac", "ratio"},
	{"core.wait_s", "s"}, {"core.local_waits_per_edge", "count/edge"},
	{"core.queued_waits_per_edge", "count/edge"}, {"core.max_pending_slots", "count"},
	{"core.retries_per_edge", "count/edge"}, {"core.steals", "count"},
	{"core.hub_hit_ratio", "ratio"}, {"core.rss_over_estimate", "ratio"},
	{"comm.msgs_per_edge", "count/edge"}, {"comm.bytes_per_edge", "B/edge"},
	{"comm.msgs_per_frame", "count/frame"},
	{"graph.merge_s", "s"}, {"graph.encode_s", "s"}, {"graph.encode_ns_per_edge", "ns"},
	{"esink.bytes_per_edge", "B/edge"}, {"esink.blocks", "count"}, {"esink.fsync_s", "s"},
	{"esink.read_ns_per_edge", "ns"},
	{"ckpt.epochs", "count"}, {"ckpt.failed", "count"}, {"ckpt.pause_s", "s"},
	{"ckpt.pause_frac", "ratio"}, {"ckpt.pause_max_ms", "ms"}, {"ckpt.write_s", "s"},
	{"ckpt.bytes_per_epoch", "B"},
	{"jobqueue.wait_s", "s"}, {"jobqueue.run_s", "s"}, {"jobqueue.attempts_per_job", "count"},
	{"serve.submit_s", "s"}, {"serve.poll_lag_s", "s"}, {"serve.download_s", "s"},
	{"trace.unaccounted_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
}

// metric is one reported value; Note carries its base or percentile.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// report is one run's record: what ran, on what, and what it measured.
type report struct {
	Workload   string               `json:"workload"`
	Why        string               `json:"why"`
	Seed       uint64               `json:"seed"`
	Traced     bool                 `json:"traced"`
	Host       host                 `json:"host"`
	Config     map[string]any       `json:"config"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Failures   []string             `json:"failures,omitempty"`
	Metrics    map[string]metric    `json:"metrics"`
	Extra      map[string]metric    `json:"extra,omitempty"`
	Samples    map[string][]float64 `json:"samples,omitempty"`
	LayerSelfS map[string]float64   `json:"layer_self_s,omitempty"`
	Spans      []span               `json:"spans,omitempty"`
}

// op counts one attempted operation and whether it failed: a non-zero
// exit, a job not ending done, or an output that does not match the
// reference.
func (r *report) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Failures = append(r.Failures, err.Error())
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", err)
	}
}

func (r *report) set(name string, v float64, note string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit, Note: note}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// extra records a value printed and saved but not part of the metric
// contract (fail_frac, per-layer bases).
func (r *report) extra(name string, v float64, unit, note string) {
	if r.Extra == nil {
		r.Extra = map[string]metric{}
	}
	r.Extra[name] = metric{Value: v, Unit: unit, Note: note}
}

// sample keeps the raw values behind a median in the run record.
func (r *report) sample(name string, xs []float64) {
	if r.Samples == nil {
		r.Samples = map[string][]float64{}
	}
	r.Samples[name] = xs
}

func (r *report) config(k string, v any) {
	if r.Config == nil {
		r.Config = map[string]any{}
	}
	r.Config[k] = v
}

// complete checks that every metric the mode promises was measured and
// drops any other, so the final line carries exactly the contract. A
// metric only failed operations would have measured reads 0; the result
// line then says correct: false.
func (r *report) complete(want []metricDef) error {
	out := map[string]metric{}
	for _, d := range want {
		m, ok := r.Metrics[d.name]
		switch {
		case !ok && r.Failed == 0:
			return fmt.Errorf("workload %s did not measure %s", r.Workload, d.name)
		case !ok:
			m = metric{Unit: d.unit, Note: "not measured: operations failed"}
		}
		out[d.name] = m
	}
	for name, m := range r.Metrics {
		if _, ok := out[name]; !ok {
			r.extra(name, m.Value, m.Unit, m.Note)
		}
	}
	r.Metrics = out
	if r.Attempted > 0 {
		r.extra("fail_frac", float64(r.Failed)/float64(r.Attempted), "ratio",
			fmt.Sprintf("%d of %d operations", r.Failed, r.Attempted))
	}
	return nil
}

func (r *report) save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// print writes one line per metric, then the result line.
func (r *report) print(f *os.File) {
	fmt.Fprintf(f, "workload %s seed %d traced=%v: %s\n", r.Workload, r.Seed, r.Traced, r.Why)
	fmt.Fprintf(f, "host nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit, r.Host.Source)
	keys := make([]string, 0, len(r.Config))
	for k := range r.Config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "config %s = %v\n", k, r.Config[k])
	}
	line := func(kind, name string, m metric) {
		fmt.Fprintf(f, "%-6s %-28s %14.6g %-11s %s\n", kind, name, m.Value, m.Unit, m.Note)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m, ok := r.Metrics[d.name]; ok {
			line("metric", d.name, m)
		}
	}
	names := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		line("extra", k, r.Extra[k])
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jm{}}
	for k, m := range r.Metrics {
		res.Metrics[k] = jm{m.Value, m.Unit}
	}
	b, _ := json.Marshal(res) // plain structs of numbers and strings
	fmt.Fprintln(f, string(b))
}
