package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pagen"
	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/jobqueue"
)

const (
	serveSlots   = 2
	serveClients = 2
	jobRanks     = 2
	seedPool     = 8  // distinct job seeds per run, each with a reference digest
	serveSetups  = 24 // daemon starts before and again after the closed loop, for the setup_s median
	pollEvery    = 10 * time.Millisecond
	portSpan     = 8
)

// jobSeeds derives the jobs' seeds from the workload seed.
func jobSeeds(seed uint64) []uint64 {
	s := make([]uint64, seedPool)
	for i := range s {
		s[i] = seed*1_000_003 + uint64(i)
	}
	return s
}

// daemon is one pa-serve process on fresh ports and a fresh data dir.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	dir  string
	log  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// freeRange finds portSpan consecutive bindable ports for the rank
// meshes, away from pa-serve's default range and below the kernel's
// default ephemeral range (32768-60999): a rank port inside it can be
// taken by the local end of one of the run's HTTP connections, and
// every later job on that daemon then fails to bind it.
func freeRange(rng *rand.Rand) (int, error) {
	for try := 0; try < 50; try++ {
		base := 20000 + rng.Intn(12000)
		ok := true
		for p := base; p < base+portSpan && ok; p++ {
			l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p))
			if err != nil {
				ok = false
				continue
			}
			l.Close()
		}
		if ok {
			return base, nil
		}
	}
	return 0, errors.New("no free port range for rank meshes")
}

// startDaemon execs pa-serve and returns once /healthz answers 200,
// with the time that took: the set-up a user waits for.
func startDaemon(o options, rng *rand.Rand) (*daemon, time.Duration, error) {
	dir, err := os.MkdirTemp(o.Work, "serve-")
	if err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	portBase, err := freeRange(rng)
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "pa-serve.log"))
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port), dir: dir, log: logf}
	d.cmd = exec.Command(filepath.Join(o.Bin, "pa-serve"),
		"-listen", fmt.Sprintf("127.0.0.1:%d", port), "-data-dir", filepath.Join(dir, "data"),
		"-slots", strconv.Itoa(serveSlots), "-runner", "process", "-pa-tcp", filepath.Join(o.Bin, "pa-tcp"),
		"-port-base", strconv.Itoa(portBase), "-port-span", strconv.Itoa(portSpan))
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := startGroup(d.cmd); err != nil {
		logf.Close()
		return nil, 0, err
	}
	client := http.Client{Timeout: time.Second}
	for time.Since(t0) < 20*time.Second {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, 0, fmt.Errorf("pa-serve did not become healthy: see %s", logf.Name())
}

// daemonRSS is a stopped daemon's memory: its own peak resident set
// (VmHWM, read just before shutdown) and its rusage maxrss, which also
// covers every pa-tcp rank it reaped.
type daemonRSS struct{ own, tree int64 }

// stop shuts the daemon down gracefully (SIGTERM checkpoints running
// jobs), falls back to killing its process group, and returns its
// memory peaks.
func (d *daemon) stop() daemonRSS {
	own := vmHWM(d.cmd.Process.Pid)
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = waitGroup(d.cmd) // a signalled exit is the expected outcome
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		reapGroup(d.cmd.Process.Pid)
		<-done
	}
	d.log.Close()
	os.RemoveAll(d.dir)
	return daemonRSS{own: own, tree: maxRSS(d.cmd)}
}

// vmHWM reads a live process's peak resident set from /proc (0 when
// unavailable).
func vmHWM(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// jobInfo is the part of pa-serve's job object the benchmark reads.
type jobInfo struct {
	ID string `json:"id"`
	// Spec is the effective spec: the request with the server defaults
	// filled in.
	Spec      jobqueue.Spec `json:"spec"`
	State     string        `json:"state"`
	Error     string        `json:"error"`
	Finished  time.Time     `json:"finished"`
	Attempts  int           `json:"attempts"`
	WaitNanos int64         `json:"wait_nanos"`
	RunNanos  int64         `json:"run_nanos"`
}

// jobRun is one closed-loop iteration: submit, poll to a terminal
// state, download.
type jobRun struct {
	seed             uint64
	submit, download spanTimes
	seen             time.Time // when the client saw the terminal state
	info             jobInfo
	file             string
	err              error
}

func (j *jobRun) latency() time.Duration { return j.download.t1.Sub(j.submit.t0) }

var httpClient = &http.Client{Timeout: 60 * time.Second}

func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// doJob runs one job through the API.
func doJob(d *daemon, n int64, seed uint64, file string) *jobRun {
	j := &jobRun{seed: seed, file: file}
	j.submit.start()
	resp, err := httpClient.Post(d.base+"/jobs", "application/json", bytes.NewBufferString(jobRequest(n, seed)))
	if err != nil {
		j.err = err
		return j
	}
	err = json.NewDecoder(resp.Body).Decode(&j.info)
	resp.Body.Close()
	j.submit.stop()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("POST /jobs: %s", resp.Status)
	}
	if err != nil {
		j.err = err
		return j
	}
	for {
		time.Sleep(pollEvery)
		if j.err = getJSON(d.base+"/jobs/"+j.info.ID, &j.info); j.err != nil {
			return j
		}
		if s := j.info.State; s == "done" || s == "failed" || s == "cancelled" {
			break
		}
	}
	j.seen = time.Now()
	if j.info.State != "done" {
		j.err = fmt.Errorf("job %s ended %s: %s", j.info.ID, j.info.State, j.info.Error)
		return j
	}
	j.download.start()
	j.err = download(d.base+"/jobs/"+j.info.ID+"/download", file)
	j.download.stop()
	return j
}

func download(url, file string) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// closedLoop runs serveClients clients, each submitting its next job
// only when the previous one is downloaded, until the deadline. It
// returns every job and the loop's wall time (start to the last
// download).
func closedLoop(o options, d *daemon, seeds []uint64, deadline time.Time, dir string) ([]*jobRun, time.Duration) {
	var mu sync.Mutex
	var jobs []*jobRun
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				j := doJob(d, o.JobN, seeds[k%len(seeds)], filepath.Join(dir, fmt.Sprintf("job%d.pag", k)))
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, time.Since(start)
}

// serveMetrics is the part of GET /metrics the benchmark reads.
type serveMetrics struct {
	Submitted    int64 `json:"submitted"`
	Completed    int64 `json:"completed"`
	Failed       int64 `json:"failed"`
	Cancelled    int64 `json:"cancelled"`
	Queued       int64 `json:"queued"`
	Running      int64 `json:"running"`
	Checkpointed int64 `json:"checkpointed"`
	RunTime      hist  `json:"run_nanos"`
	CkptPause    hist  `json:"ckpt_pause_per_epoch"`
	CkptWrite    hist  `json:"ckpt_write_per_epoch"`
}

type hist struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
}

// checkMetrics reads /metrics and checks the reconciliation invariant:
// every accepted job is in exactly one bucket.
func checkMetrics(d *daemon, jobs int) (serveMetrics, error) {
	var sm serveMetrics
	if err := getJSON(d.base+"/metrics", &sm); err != nil {
		return sm, err
	}
	if sm.Submitted != sm.Completed+sm.Failed+sm.Cancelled+sm.Queued+sm.Running+sm.Checkpointed {
		return sm, fmt.Errorf("/metrics does not reconcile: %+v", sm)
	}
	if sm.Submitted != int64(jobs) {
		return sm, fmt.Errorf("/metrics counts %d submitted jobs, clients submitted %d", sm.Submitted, jobs)
	}
	return sm, nil
}

// verifyJobs checks each job's outcome and download (parsed with
// graph.ReadBinary) against its seed's reference digest, and returns the
// jobs that passed.
func verifyJobs(r *report, jobs []*jobRun, refs map[uint64]digest) []*jobRun {
	var ok []*jobRun
	for _, j := range jobs {
		err := j.err
		if err == nil {
			var d digest
			if d, err = digestBinaryFile(j.file); err == nil {
				err = d.check(refs[j.seed])
			}
		}
		os.Remove(j.file)
		r.op(err)
		if err == nil {
			ok = append(ok, j)
		}
	}
	return ok
}

// serveRefs computes the reference digest of every job seed, each as a
// seq span when traced.
func serveRefs(o options, t *tracer) (map[uint64]digest, []float64, error) {
	refs := map[uint64]digest{}
	var gen []float64
	for _, s := range jobSeeds(o.Seed) {
		d, st, err := referenceDigest(o.JobN, edgesPerNode, s)
		if err != nil {
			return nil, nil, err
		}
		refs[s] = d
		gen = append(gen, st.dur().Seconds())
		if t != nil {
			t.add(t.op(), 0, "seq.CopyModel", "seq", st)
		}
	}
	return refs, gen, nil
}

// seqBaseline times pagen -seq writing each job seed's graph twice, in
// the download's binary format (the T_s of one job), and returns the
// walls. It runs before and after the closed loop, so drift of the
// host's speed during the loop shows on both sides of the median.
func seqBaseline(o options, r *report, refs map[uint64]digest) []float64 {
	var walls []float64
	for _, s := range append(jobSeeds(o.Seed), jobSeeds(o.Seed)...) {
		pr, ok := invoke(o, r, func(out string) []string { return seqArgs(o.JobN, s, out, "binary") },
			func(out string) error { return verifySeq(out, "binary", refs[s]) })
		if ok {
			walls = append(walls, pr.Wall.Seconds())
		}
	}
	return walls
}

func serveConfig(o options, r *report) {
	r.config("slots", serveSlots)
	r.config("clients", serveClients)
	r.config("runner", "process")
	r.config("job_request", jobRequest(o.JobN, 0)+", seed replaced by each of job_seeds")
	r.config("job_seeds", jobSeeds(o.Seed))
}

// jobRequest is the body of one submit: spec fields other than n, x,
// ranks and seed keep the server defaults.
func jobRequest(n int64, seed uint64) string {
	return fmt.Sprintf(`{"n":%d,"x":%d,"ranks":%d,"seed":%d}`, n, edgesPerNode, jobRanks, seed)
}

// recordSpec records the effective spec the daemon resolved for the
// first completed job, so a change of server defaults shows in the
// record.
func recordSpec(r *report, jobs []*jobRun) {
	if len(jobs) > 0 {
		b, _ := json.Marshal(jobs[0].info.Spec) // a plain struct of numbers and strings
		r.config("job_spec_effective", string(b))
	}
}

// loopTime is the closed loop's share of --seconds; daemon starts, the
// seq baseline and the download checks take the rest.
func loopTime(o options) time.Duration {
	return time.Duration(0.8 * o.Seconds * float64(time.Second))
}

// daemonStarts starts and stops serveSetups daemons and appends each
// one's set-up time to setups.
func daemonStarts(o options, rng *rand.Rand, setups []float64) ([]float64, error) {
	for i := 0; i < serveSetups; i++ {
		d, s, err := startDaemon(o, rng)
		if err != nil {
			return setups, err
		}
		d.stop()
		setups = append(setups, s.Seconds())
	}
	return setups, nil
}

func runServe(o options, r *report) error {
	serveConfig(o, r)
	refs, _, err := serveRefs(o, nil)
	if err != nil {
		return err
	}
	freeMemory()
	// The seq baseline runs first, so the daemon starts do not follow
	// the reference computation's allocations directly.
	seqWalls := seqBaseline(o, r, refs)
	rng := rand.New(rand.NewSource(int64(o.Seed)))
	setups, err := daemonStarts(o, rng, nil)
	if err != nil {
		return err
	}
	d, s, err := startDaemon(o, rng)
	if err != nil {
		return err
	}
	setups = append(setups, s.Seconds())
	dl, err := os.MkdirTemp(o.Work, "dl-")
	if err != nil {
		d.stop()
		return err
	}
	defer os.RemoveAll(dl)
	jobs, loopWall := closedLoop(o, d, jobSeeds(o.Seed), time.Now().Add(loopTime(o)), dl)
	_, err = checkMetrics(d, len(jobs))
	r.op(err)
	rss := d.stop()
	ok := verifyJobs(r, jobs, refs)
	seqWalls = append(seqWalls, seqBaseline(o, r, refs)...)
	if setups, err = daemonStarts(o, rng, setups); err != nil {
		return err
	}
	recordSpec(r, ok)
	r.sample("seq_wall_s", seqWalls)
	seqWall := median(seqWalls)

	var lat []float64
	for _, j := range ok {
		lat = append(lat, j.latency().Seconds())
	}
	r.sample("latency_s", lat)
	r.sample("setup_s", setups)
	jps := float64(len(ok)) / loopWall.Seconds()
	tv, tp := tail(lat)
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d daemon starts before and after the loop, exec to first /healthz 200", len(setups)))
	r.set("jobs_per_s", jps, fmt.Sprintf("%d jobs in %.2f s, %d clients", len(ok), loopWall.Seconds(), serveClients))
	r.set("edges_per_s", jps*float64(edgeCount(o.JobN)), "jobs_per_s x edges per job")
	r.set("job_latency_p50_s", median(lat), fmt.Sprintf("submit to downloaded, median of %d", len(lat)))
	r.set("job_latency_tail_s", tv, fmt.Sprintf("p%.4g of %d", tp, len(lat)))
	// The rusage figure is the maximum over every rank process of every
	// job, a tail statistic that moves by a quarter between runs; the
	// daemon's own peak is the contract metric, the other is kept.
	r.set("peak_rss_mb", float64(rss.own)/(1<<20), "daemon VmHWM")
	r.extra("serve.tree_peak_rss_mb", float64(rss.tree)/(1<<20), "MB", "daemon rusage maxrss, max over its reaped pa-tcp ranks")
	r.set("speedup_vs_seq", seqWall*jps, fmt.Sprintf("seq median %.4f s per job x jobs_per_s", seqWall))
	return nil
}

// traceServe runs the closed loop twice on one daemon, untraced then
// with a span around every API call, reads the job objects and
// /metrics, and replays one job's spec in process for the engine
// counters pa-serve does not export.
func traceServe(o options, r *report, t *tracer) error {
	serveConfig(o, r)
	refs, gen, err := serveRefs(o, t)
	if err != nil {
		return err
	}
	r.set("seq.gen_s", median(gen), fmt.Sprintf("median of %d job seeds", len(gen)))
	r.set("seq.ns_per_edge", median(gen)*1e9/float64(edgeCount(o.JobN)), "")
	freeMemory()
	d, _, err := startDaemon(o, rand.New(rand.NewSource(int64(o.Seed))))
	if err != nil {
		return err
	}
	dl, err := os.MkdirTemp(o.Work, "dl-")
	if err != nil {
		d.stop()
		return err
	}
	defer os.RemoveAll(dl)
	half := loopTime(o) / 2
	plain, plainWall := closedLoop(o, d, jobSeeds(o.Seed), time.Now().Add(half), dl)
	okPlain := verifyJobs(r, plain, refs)
	traced, tracedWall := closedLoop(o, d, jobSeeds(o.Seed), time.Now().Add(half), dl)
	sm, err := checkMetrics(d, len(plain)+len(traced))
	r.op(err)
	rss := d.stop()
	okTraced := verifyJobs(r, traced, refs)

	// Per-job spans: the API calls are measured; the queue wait and pool
	// run come from the job object, the checkpoint pause from /metrics.
	ranksTotal := float64(max(sm.Completed, 1) * jobRanks)
	pausePerJob := time.Duration(float64(sm.CkptPause.Sum) / ranksTotal)
	samples := map[string][]float64{}
	add := func(k string, v float64) { samples[k] = append(samples[k], v) }
	for _, j := range okTraced {
		op := t.op()
		root := spanTimes{j.submit.t0, j.download.t1}
		rootID := t.add(op, 0, rootSpan, "bench", root)
		t.add(op, rootID, "POST /jobs", "serve", j.submit)
		t.addCounted(op, rootID, "jobqueue.wait", "jobqueue", time.Duration(j.info.WaitNanos))
		runID := t.addCounted(op, rootID, "jobqueue.run", "jobqueue", time.Duration(j.info.RunNanos))
		t.addCounted(op, runID, "ckpt.pause", "ckpt", pausePerJob)
		lag := j.seen.Sub(j.info.Finished)
		t.add(op, rootID, "GET /jobs/{id} lag", "serve", spanTimes{j.seen.Add(-lag), j.seen})
		t.add(op, rootID, "GET /jobs/{id}/download", "serve", j.download)
		add("jobqueue.wait_s", float64(j.info.WaitNanos)/1e9)
		add("jobqueue.run_s", float64(j.info.RunNanos)/1e9)
		add("jobqueue.attempts_per_job", float64(j.info.Attempts))
		add("serve.submit_s", j.submit.dur().Seconds())
		add("serve.poll_lag_s", lag.Seconds())
		add("serve.download_s", j.download.dur().Seconds())
	}
	for k, v := range samples {
		note := fmt.Sprintf("median of %d jobs", len(v))
		if k == "jobqueue.attempts_per_job" {
			r.set(k, mean(v), fmt.Sprintf("mean of %d jobs", len(v)))
			continue
		}
		r.set(k, median(v), note)
	}
	eu := float64(len(okPlain)) * float64(edgeCount(o.JobN)) / plainWall.Seconds()
	et := float64(len(okTraced)) * float64(edgeCount(o.JobN)) / tracedWall.Seconds()
	r.set("trace.overhead_frac", ratio(eu-et, eu), fmt.Sprintf("edges/s untraced loop %.4g vs traced loop %.4g", eu, et))

	recordSpec(r, okTraced)
	// With no completed job there is no spec to replay; the failures
	// are counted and the replay's metrics read as unmeasured.
	if len(okTraced) > 0 {
		if err := replayJob(o, r, okTraced[0].info.Spec, refs, rss); err != nil {
			return err
		}
	}
	// The daemon's real checkpoint cost, per job and rank, overrides
	// the replay's.
	r.set("ckpt.epochs", float64(sm.CkptPause.Count)/ranksTotal, "per job and rank, from /metrics")
	r.set("ckpt.pause_s", float64(sm.CkptPause.Sum)/1e9/ranksTotal, "per job and rank, from /metrics")
	r.set("ckpt.pause_frac", ratio(float64(sm.CkptPause.Sum), float64(sm.RunTime.Sum)*jobRanks), "pause / (pool run time x ranks), from /metrics")
	r.set("ckpt.pause_max_ms", float64(sm.CkptPause.Max)/1e6, "from /metrics")
	r.set("ckpt.write_s", float64(sm.CkptWrite.Sum)/1e9/ranksTotal, "per job and rank, from /metrics")
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// replayJob runs a completed job's effective spec in process
// (pagen.Generate with the settings the daemon passed its rank
// processes, over the wire-codec transport) for the engine, comm, esink
// and graph counters, then reads its shards back and encodes them as
// the download handler does.
func replayJob(o options, r *report, sp jobqueue.Spec, refs map[uint64]digest, rss daemonRSS) error {
	dir, err := os.MkdirTemp(o.Work, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	seed := sp.Seed
	cfg := pagen.Config{N: sp.N, X: sp.X, P: sp.P, Seed: sp.Seed, Scheme: sp.Scheme, Ranks: sp.Ranks,
		Workers: sp.Workers, HubPrefix: sp.HubPrefix, Resolve: sp.Resolve, RecomputeDepth: sp.RecomputeDepth,
		Transport: "local", StreamDir: filepath.Join(dir, "shards"), StreamBlockEdges: sp.StreamBlockEdges,
		CheckpointDir: filepath.Join(dir, "ckpt"), CheckpointEvery: sp.CheckpointEvery,
		CheckpointFullEvery: sp.CheckpointFullEvery}
	var gen spanTimes
	gen.start()
	res, err := pagen.Generate(cfg)
	gen.stop()
	if err != nil {
		r.op(err)
		return nil
	}
	edges := edgeCount(o.JobN)
	note := "in-process replay of a completed job's effective spec"
	layerMetrics(func(k string, v float64) {
		if k == "core.hub_queries" {
			r.extra(k, v, "count", "base of core.hub_hit_ratio")
			return
		}
		r.set(k, v, note)
	}, res, edges)
	r.set("graph.merge_s", gen.dur().Seconds()-res.Elapsed.Seconds(), note)
	r.set("core.rss_over_estimate", ratio(float64(rss.tree), float64(pagen.MemoryEstimate(cfg))), "largest rank maxrss / MemoryEstimate(job)")

	d, open, iter, err := digestShards(cfg.StreamDir, cfg.Ranks)
	if err == nil {
		err = d.check(refs[seed])
	}
	r.op(err)
	read := open.dur() + iter.dur()
	r.set("esink.read_ns_per_edge", float64(read.Nanoseconds())/float64(edges), note)

	var enc spanTimes
	dr, err := esink.OpenDir(cfg.StreamDir, cfg.Ranks)
	if err != nil {
		return err
	}
	defer dr.Close()
	enc.start()
	err = graph.WriteBinaryStream(io.Discard, dr.Meta().N, dr.Edges(), dr.Iter(0))
	enc.stop()
	if err != nil {
		return err
	}
	encS := max(enc.dur()-read, 0).Seconds()
	r.set("graph.encode_s", encS, "WriteBinaryStream over the shards minus the esink read")
	r.set("graph.encode_ns_per_edge", encS*1e9/float64(edges), note)
	return nil
}
