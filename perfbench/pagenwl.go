package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"pagen"
	"pagen/internal/graph"
)

const (
	edgesPerNode = 4
	tinyN        = 1000 // nodes of the set-up invocation
	setupBurst   = 8    // set-up invocations before the first and after every measured step
	rootSpan     = "bench.op"
)

// memArgs is mem_default_text's invocation: every flag but the size,
// the seed and the output file at its default.
func memArgs(n int64, seed uint64, out string) []string {
	return []string{"-n", itoa(n), "-x", itoa(edgesPerNode), "-seed", utoa(seed), "-o", filepath.Join(out, "g.txt")}
}

// verifyText checks the text output an invocation wrote into out.
func verifyText(out string, ref digest) error {
	d, err := digestTextFile(filepath.Join(out, "g.txt"))
	if err != nil {
		return err
	}
	return d.check(ref)
}

// generateTraced runs the workload's generation in process with spans
// around pagen.Generate and graph.WriteText. The engine's own time
// inside Generate (Result.Elapsed) is a counted child span, so
// Generate's self time is the transport set-up plus the merge.
func generateTraced(cfg pagen.Config, out string, t *tracer, op, root int) (*pagen.Result, error) {
	var gen, enc spanTimes
	gen.start()
	res, err := pagen.Generate(cfg)
	gen.stop()
	if err != nil {
		return nil, err
	}
	genID := t.add(op, root, "pagen.Generate", "graph", gen)
	t.addCounted(op, genID, "core.Run", "core", res.Elapsed)
	enc.start()
	err = writeText(filepath.Join(out, "g.txt"), res.Graph)
	enc.stop()
	t.add(op, root, "graph.WriteText", "graph", enc)
	return res, err
}

func writeText(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteText(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func itoa(v int64) string  { return strconv.FormatInt(v, 10) }
func utoa(v uint64) string { return strconv.FormatUint(v, 10) }

// freeMemory returns the harness's heap to the OS between runs, so a
// child's memory is not competing with a dead reference graph.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// prepare resolves the pagen defaults, records the effective config and
// computes the reference digest outside any timed region.
func prepare(o options, r *report, t *tracer) (map[string]string, digest, error) {
	defs, err := pagenDefaults(o.Bin)
	if err != nil {
		return nil, digest{}, err
	}
	cfg, _, err := defaultConfig(defs, o.N, edgesPerNode, o.Seed)
	if err != nil {
		return nil, digest{}, err
	}
	for k, v := range effective(cfg) {
		r.config(k, v)
	}
	r.config("command", "pagen "+strings.Join(memArgs(o.N, o.Seed, "OUT"), " "))
	r.config("seq_command", "pagen "+strings.Join(seqArgs(o.N, o.Seed, "OUT", "text"), " "))
	ref, st, err := referenceDigest(o.N, edgesPerNode, o.Seed)
	if err != nil {
		return nil, ref, err
	}
	if t != nil {
		op := t.op()
		t.add(op, 0, "seq.CopyModel", "seq", st)
	}
	r.set("seq.gen_s", st.dur().Seconds(), "")
	r.set("seq.ns_per_edge", ratio(float64(st.dur().Nanoseconds()), float64(edgeCount(o.N))), "")
	freeMemory()
	return defs, ref, nil
}

// edgeCount is the number of edges the copy model emits for n nodes.
func edgeCount(n int64) int64 { return (n - edgesPerNode) * edgesPerNode }

func seqArgs(n int64, seed uint64, out, format string) []string {
	return []string{"-seq", "-n", itoa(n), "-x", itoa(edgesPerNode), "-seed", utoa(seed),
		"-format", format, "-o", filepath.Join(out, "seq.out")}
}

func verifySeq(out, format string, ref digest) error {
	path := filepath.Join(out, "seq.out")
	var d digest
	var err error
	if format == "text" {
		d, err = digestTextFile(path)
	} else {
		d, err = digestBinaryFile(path)
	}
	if err != nil {
		return err
	}
	return d.check(ref)
}

// invoke execs one pagen invocation into a fresh output directory,
// checks its output and removes it. It reports the run only when it
// succeeded.
func invoke(o options, r *report, args func(out string) []string, verify func(out string) error) (procRun, bool) {
	out, err := os.MkdirTemp(o.Work, "out-")
	if err != nil {
		r.op(err)
		return procRun{}, false
	}
	defer os.RemoveAll(out)
	pr, err := runTimed(filepath.Join(o.Bin, "pagen"), args(out)...)
	if err == nil {
		err = verify(out)
	}
	r.op(err)
	return pr, err == nil
}

// setupSampler measures the fixed per-invocation cost: the wall of
// tiny-n invocations of the workload's command. Each takes a few
// milliseconds, so many are taken, in bursts spread through the run,
// and their median is reported; drift of the host's speed during the
// run then shows on both sides of the median.
type setupSampler struct {
	o     options
	r     *report
	ref   digest
	walls []float64
}

func newSetupSampler(o options, r *report) (*setupSampler, error) {
	ref, _, err := referenceDigest(tinyN, edgesPerNode, o.Seed)
	if err != nil {
		return nil, err
	}
	s := &setupSampler{o: o, r: r, ref: ref}
	s.burst(1) // warm-up: the first exec of a fresh binary pays for loading it
	s.walls = nil
	return s, nil
}

// burst runs k tiny invocations and keeps the walls of those that
// passed their output check.
func (s *setupSampler) burst(k int) {
	for i := 0; i < k; i++ {
		pr, ok := invoke(s.o, s.r, func(out string) []string { return memArgs(tinyN, s.o.Seed, out) },
			func(out string) error { return verifyText(out, s.ref) })
		if ok {
			s.walls = append(s.walls, pr.Wall.Seconds())
		}
	}
}

func (s *setupSampler) report() {
	s.r.sample("setup_s", s.walls)
	s.r.set("setup_s", median(s.walls), fmt.Sprintf("median of %d tiny-n (n=%d) invocations in bursts of %d through the run", len(s.walls), tinyN, setupBurst))
}

// runMemDefault measures the workload invocation and the pagen -seq
// baseline in turn, S Q S Q S ..., so each baseline run Q sits between
// two workload runs S and drift of the host's speed cancels out of
// their ratio. Set-up invocations follow every step. It stops before a
// step that would, at that kind's mean length so far, end past the
// deadline.
func runMemDefault(o options, r *report) error {
	_, ref, err := prepare(o, r, nil)
	if err != nil {
		return err
	}
	setup, err := newSetupSampler(o, r)
	if err != nil {
		return err
	}
	setup.burst(setupBurst)
	sut := func(out string) []string { return memArgs(o.N, o.Seed, out) }
	sutOK := func(out string) error { return verifyText(out, ref) }
	base := func(out string) []string { return seqArgs(o.N, o.Seed, out, "text") }
	baseOK := func(out string) error { return verifySeq(out, "text", ref) }

	// wall[i] is step i's wall time in seconds, or 0 if it failed.
	var wall, rss []float64
	var spent [2]time.Duration // per kind: 0 workload, 1 baseline
	var count [2]int
	deadline := o.deadline(time.Now())
	for i := 0; ; i++ {
		kind := i % 2
		if count[kind] > 0 && time.Now().Add(spent[kind]/time.Duration(count[kind])).After(deadline) {
			break
		}
		t0 := time.Now()
		var pr procRun
		var ok bool
		if kind == 0 {
			pr, ok = invoke(o, r, sut, sutOK)
		} else {
			pr, ok = invoke(o, r, base, baseOK)
		}
		spent[kind] += time.Since(t0)
		count[kind]++
		setup.burst(setupBurst)
		wall = append(wall, 0)
		if ok {
			wall[i] = pr.Wall.Seconds()
			if kind == 0 {
				rss = append(rss, pr.rssMB())
			}
		}
	}
	var walls, seqWalls, ratios []float64
	for i, w := range wall {
		if w == 0 {
			continue
		}
		if i%2 == 0 {
			walls = append(walls, w)
			continue
		}
		seqWalls = append(seqWalls, w)
		var around []float64
		for _, j := range []int{i - 1, i + 1} {
			if j < len(wall) && wall[j] > 0 {
				around = append(around, wall[j])
			}
		}
		if len(around) > 0 {
			ratios = append(ratios, w/mean(around))
		}
	}
	reportRuns(r, o.N, walls, rss)
	setup.report()
	r.sample("wall_s", walls)
	r.sample("seq_wall_s", seqWalls)
	r.sample("speedup", ratios)
	r.sample("rss_mb", rss)
	r.set("speedup_vs_seq", median(ratios), fmt.Sprintf("median of %d seq runs over their neighbouring runs; seq median %.3f s", len(ratios), median(seqWalls)))
	return nil
}

// startAnother reports whether another round fits before the
// deadline at the mean round length so far.
func startAnother(start, deadline time.Time, rounds int) bool {
	per := time.Since(start) / time.Duration(rounds)
	return !time.Now().Add(per).After(deadline)
}

// reportRuns sets the end-to-end metrics of invocation walls: one
// invocation is one job.
func reportRuns(r *report, n int64, walls, rss []float64) {
	var sum float64
	for _, w := range walls {
		sum += w
	}
	p50 := median(walls)
	tv, tp := tail(walls)
	note := fmt.Sprintf("median of %d invocations", len(walls))
	r.set("edges_per_s", ratio(float64(edgeCount(n)), p50), note)
	r.set("job_latency_p50_s", p50, note)
	r.set("job_latency_tail_s", tv, fmt.Sprintf("p%.4g of %d", tp, len(walls)))
	r.set("jobs_per_s", ratio(float64(len(walls)), sum), "invocations / summed wall")
	r.set("peak_rss_mb", median(rss), "median rusage maxrss of "+strconv.Itoa(len(rss)))
}

// traceMemDefault alternates an untraced invocation (the reference for the
// tracing overhead and the RSS ratio) with the same generation run in
// process under spans, until the time is up.
func traceMemDefault(o options, r *report, t *tracer) error {
	defs, ref, err := prepare(o, r, t)
	if err != nil {
		return err
	}
	samples := map[string][]float64{}
	add := func(k string, v float64) { samples[k] = append(samples[k], v) }
	start := time.Now()
	deadline := o.deadline(start)
	for i := 0; ; i++ {
		if i > 0 && !startAnother(start, deadline, i) {
			break
		}
		pr, ok := invoke(o, r, func(out string) []string { return memArgs(o.N, o.Seed, out) },
			func(out string) error { return verifyText(out, ref) })
		if !ok {
			continue
		}
		add("untraced_wall", pr.Wall.Seconds())
		if err := tracedOnce(o, r, t, defs, ref, pr, add); err != nil {
			r.op(err)
		}
		freeMemory()
	}
	for k, v := range samples {
		switch k {
		case "untraced_wall", "traced_wall":
		case "core.hub_queries":
			r.extra(k, median(v), "count", "base of core.hub_hit_ratio")
		default:
			r.set(k, median(v), fmt.Sprintf("median of %d", len(v)))
		}
	}
	eu := ratio(float64(edgeCount(o.N)), median(samples["untraced_wall"]))
	et := ratio(float64(edgeCount(o.N)), median(samples["traced_wall"]))
	r.set("trace.overhead_frac", ratio(eu-et, eu),
		fmt.Sprintf("edges/s untraced exec %.4g vs traced in-process %.4g", eu, et))
	for _, k := range []string{"jobqueue.wait_s", "jobqueue.run_s", "jobqueue.attempts_per_job",
		"serve.submit_s", "serve.poll_lag_s", "serve.download_s"} {
		r.set(k, 0, "no job queue on this workload")
	}
	r.set("esink.read_ns_per_edge", 0, "no shards on this workload")
	return nil
}

// tracedOnce runs one traced generation, checks its output, and adds
// its layer metrics to the samples.
func tracedOnce(o options, r *report, t *tracer, defs map[string]string, ref digest, untraced procRun, add func(string, float64)) error {
	out, err := os.MkdirTemp(o.Work, "traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(out)
	cfg, _, err := defaultConfig(defs, o.N, edgesPerNode, o.Seed)
	if err != nil {
		return err
	}
	op := t.op()
	var root spanTimes
	root.start()
	// The root span is added before its children so they can name it;
	// its end is patched once the operation is over.
	rootID := t.add(op, 0, rootSpan, "bench", root)
	res, err := generateTraced(cfg, out, t, op, rootID)
	root.stop()
	t.setDur(rootID, root.dur())
	if err != nil {
		return err
	}
	edges := edgeCount(o.N)
	add("traced_wall", root.dur().Seconds())
	layerMetrics(add, res, edges)
	var genS float64
	for _, s := range t.opSpans(op) {
		switch s.Name {
		case "pagen.Generate":
			genS = s.DurS
		case "graph.WriteText":
			add("graph.encode_s", s.DurS)
			add("graph.encode_ns_per_edge", s.DurS*1e9/float64(edges))
		}
	}
	add("graph.merge_s", genS-res.Elapsed.Seconds())
	add("core.rss_over_estimate", ratio(float64(untraced.MaxRSS), float64(pagen.MemoryEstimate(cfg))))
	res = nil
	freeMemory()
	r.op(verifyText(out, ref))
	return nil
}

// layerMetrics derives the core, comm, esink and ckpt metrics from the
// counters a run returns (Result.Ranks, core.RankStats).
func layerMetrics(add func(string, float64), res *pagen.Result, edges int64) {
	e := float64(edges)
	var busy, wall, pause, fsync, pauseMax time.Duration
	var local, queued, retries, steals, hits, misses, maxPend int64
	var msgs, bytes, frames, sinkBytes, sinkBlocks, epochs, failed, ckBytes int64
	var write time.Duration
	for _, st := range res.Ranks {
		busy += st.BusyTime
		wall += st.WallTime
		local += st.LocalWaits
		queued += st.QueuedWaits
		retries += st.Retries
		steals += st.Steals
		hits += st.HubCacheHits
		misses += st.HubCacheMisses
		maxPend = max(maxPend, st.MaxPendingSlots)
		// Data messages only: requests, resolutions and hub publishes.
		// Control messages (done reports, checkpoint votes) are a few
		// per run, and one rank sends itself one.
		msgs += st.Comm.RequestsSent + st.Comm.ResolvedSent + st.Comm.PublishSent
		bytes += st.Comm.BytesSent
		frames += st.Comm.FramesSent
		sinkBytes += st.SinkBytes
		sinkBlocks += st.SinkBlocks
		fsync = max(fsync, st.SinkFsyncTime)
		epochs = max(epochs, st.CkptEpochs)
		failed = max(failed, st.CkptFailed)
		pause = max(pause, st.CkptPauseTime)
		pauseMax = max(pauseMax, time.Duration(st.CkptPauseHist.Max))
		write += st.CkptWriteTime
		ckBytes += st.CkptBytes
	}
	gen := res.Elapsed.Seconds()
	add("core.gen_s", gen)
	add("core.ns_per_edge", gen*1e9/e)
	add("core.busy_frac", ratio(busy.Seconds(), wall.Seconds()))
	add("core.wait_s", (wall - busy).Seconds())
	add("core.local_waits_per_edge", float64(local)/e)
	add("core.queued_waits_per_edge", float64(queued)/e)
	add("core.max_pending_slots", float64(maxPend))
	add("core.retries_per_edge", float64(retries)/e)
	add("core.steals", float64(steals))
	add("core.hub_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	add("core.hub_queries", float64(hits+misses))
	add("comm.msgs_per_edge", float64(msgs)/e)
	add("comm.bytes_per_edge", float64(bytes)/e)
	add("comm.msgs_per_frame", ratio(float64(msgs), float64(frames)))
	add("esink.bytes_per_edge", float64(sinkBytes)/e)
	add("esink.blocks", float64(sinkBlocks))
	add("esink.fsync_s", fsync.Seconds())
	add("ckpt.epochs", float64(epochs))
	add("ckpt.failed", float64(failed))
	add("ckpt.pause_s", pause.Seconds())
	add("ckpt.pause_frac", ratio(pause.Seconds(), gen))
	add("ckpt.pause_max_ms", float64(pauseMax)/1e6)
	add("ckpt.write_s", write.Seconds())
	add("ckpt.bytes_per_epoch", ratio(float64(ckBytes), float64(epochs)))
}
