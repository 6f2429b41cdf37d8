package core

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pagen/internal/ckpt"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/seq"
	"pagen/internal/transport"
)

// The tests named for workers or stealing predate the one-goroutine-
// per-rank engine. What they checked of a rank's own loop still holds
// and is checked here; where they swept a worker count, the sweep now
// runs over v5 snapshots that the multi-worker engine wrote at that
// count, each holding one 'W' section per writer worker and resumed by
// this engine. testdata/v5-workers/ranksR-workersW is an in-memory run
// (n=1500, x=3, p=0.5, seed 11, RRP, hub cache auto);
// testdata/v5-workers-stream/ranksR-workersW a streamed one (n=1500,
// x=2, seed 21, 512-edge blocks) with its checkpoint in ckpt/ and its
// shards in stream/, cut back to the epoch's durable mark. Each keeps
// only epoch 1, a full snapshot; its interval was picked so that the
// cut falls early (see workerFixture for what is checked).

// copyFixture copies the testdata tree under dir into a fresh temporary
// directory — a resumed run writes into its checkpoint and stream
// directories — and returns the copy's path.
func copyFixture(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(out, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(out, rel), b, 0o644)
	})
	if err != nil {
		t.Fatalf("copy fixture %s: %v", dir, err)
	}
	return out
}

// workerFixture returns a private copy of the snapshot directory the
// multi-worker engine wrote at ranks × workers under root, after
// checking that it is what it claims: epoch 1 on every rank, with one
// 'W' section per writer worker, at least a quarter of the rank's slots
// still unresolved (the resume has real work left), and — with more
// than one writer worker — pending records in two or more sections on
// some rank, so the merge has something to merge. Every rank
// materializing epoch 1 is also what makes the resume take it rather
// than start fresh. sub names the checkpoint directory inside the
// fixture ("" for the fixture itself).
func workerFixture(t *testing.T, root string, ranks, workers int, sub string) string {
	t.Helper()
	src := filepath.Join("testdata", root, fmt.Sprintf("ranks%d-workers%d", ranks, workers))
	merged := false
	for r := 0; r < ranks; r++ {
		s, err := ckpt.Materialize(filepath.Join(src, sub), r, 1)
		if err != nil {
			t.Fatalf("fixture %s rank %d: %v", src, r, err)
		}
		if s.Meta.Ranks != ranks || len(s.Workers) != workers {
			t.Fatalf("fixture %s rank %d: %d ranks, %d W sections; want %d, %d",
				src, r, s.Meta.Ranks, len(s.Workers), ranks, workers)
		}
		unresolved := 0
		for _, f := range s.F {
			if f < 0 {
				unresolved++
			}
		}
		if 4*unresolved < len(s.F) {
			t.Fatalf("fixture %s rank %d: %d of %d slots unresolved, want at least a quarter",
				src, r, unresolved, len(s.F))
		}
		pending := 0
		for _, w := range s.Workers {
			if len(w.Susp)+len(w.Waiters)+len(w.Remote) > 0 {
				pending++
			}
		}
		merged = merged || pending >= 2
	}
	if workers > 1 && !merged {
		t.Fatalf("fixture %s: no rank has pending records in two W sections", src)
	}
	return copyFixture(t, src)
}

// runWithin is Run with a time limit: a restore that lost pending
// records leaves ranks waiting for answers that never come, and the
// test should fail rather than hang.
func runWithin(t *testing.T, opts Options) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(opts, false)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish within 30s")
		return nil
	}
}

// The headline determinism property across engine generations: a run
// the multi-worker engine checkpointed at any (ranks, workers) shape —
// testdata/v5-workers, n=1500, x=3, p=0.5, seed 11, RRP — resumes here
// to the sequential copy model's edge set. The restore merges the
// writer's per-worker 'W' sections into the rank's single tables.
func TestWorkersMatchSequential(t *testing.T) {
	pr := model.Params{N: 1_500, X: 3, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 11, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := edgeSet(t, sg.Edges)
	for _, ranks := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("ranks=%d/workers=%d", ranks, workers), func(t *testing.T) {
				dir := workerFixture(t, "v5-workers", ranks, workers, "")
				part, err := partition.New(partition.KindRRP, pr.N, ranks)
				if err != nil {
					t.Fatal(err)
				}
				res := runWithin(t, Options{Params: pr, Part: part, Seed: 11,
					Checkpoint: &CheckpointOptions{Dir: dir, Resume: true}})
				sameEdgeSet(t, t.Name(), res.Graph.Edges, want)
			})
		}
	}
}

// Every partition scheme at 4 ranks: the partition changes which rank
// computes each node, and the edge set must not notice.
func TestWorkersAllSchemes(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 5, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := edgeSet(t, sg.Edges)
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			part, err := partition.New(kind, pr.N, 4)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Options{Params: pr, Part: part, Seed: 5}, false)
			if err != nil {
				t.Fatal(err)
			}
			sameEdgeSet(t, kind.String(), res.Graph.Edges, want)
		})
	}
}

// runChaos runs p ranks over endpoints of group, each wrapped in a
// seeded delay-chaos transport (seedBase + rank), and returns the union
// of their edges.
func runChaos(t *testing.T, group interface {
	Endpoint(int) transport.Transport
}, p int, seedBase uint64, opts Options) []graph.Edge {
	t.Helper()
	results := make([]*RankResult, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr := transport.NewChaos(group.Endpoint(r), transport.ChaosConfig{
				Seed:      seedBase + uint64(r),
				DelayProb: 0.3,
				MaxDelay:  500 * time.Microsecond,
			})
			defer tr.Close()
			results[r], errs[r] = RunRank(tr, opts)
		}(r)
	}
	wg.Wait()
	var all []graph.Edge
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		all = append(all, results[r].Edges...)
	}
	return all
}

// Determinism must survive a hostile message schedule: a chaos transport
// delaying 30% of frames over the local (byte codec) group reorders
// resolution arrivals across ranks, and the output must still be the
// sequential edge set.
func TestWorkersChaosDeterministic(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 9, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	part, err := partition.New(partition.KindRRP, pr.N, p)
	if err != nil {
		t.Fatal(err)
	}
	group, err := transport.NewLocalGroup(p)
	if err != nil {
		t.Fatal(err)
	}
	all := runChaos(t, group, p, 900, Options{Params: pr, Part: part, Seed: 9})
	sameEdgeSet(t, "chaos", all, edgeSet(t, sg.Edges))
}

// The same delay chaos over the shm group: chaos-wrapped endpoints hide
// the SendMsgs fast path, so this runs the shm group's byte-codec
// fallback, at 2 and 4 ranks.
func TestStealChaosDelayWorkers(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 9, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := edgeSet(t, sg.Edges)
	for _, p := range []int{2, 4} {
		part, err := partition.New(partition.KindRRP, pr.N, p)
		if err != nil {
			t.Fatal(err)
		}
		group, err := transport.NewShmGroup(p)
		if err != nil {
			t.Fatal(err)
		}
		all := runChaos(t, group, p, uint64(700+10*p), Options{Params: pr, Part: part, Seed: 9})
		sameEdgeSet(t, fmt.Sprintf("chaos ranks=%d", p), all, want)
	}
}

// Hub publishes are the one drop-tolerated message class (requests fall
// back to the wire), so losing all of them must still produce the
// cache-off baseline's edges, rank for rank — at 2 and 4 ranks.
func TestStealPublishDropWorkers(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	for _, p := range []int{2, 4} {
		part, err := partition.New(partition.KindRRP, pr.N, p)
		if err != nil {
			t.Fatal(err)
		}
		baseline, _ := runFiltered(t, Options{Params: pr, Part: part, Seed: 17, HubPrefix: -1}, p, false)
		dropped, filters := runFiltered(t, Options{Params: pr, Part: part, Seed: 17, HubPrefix: 0}, p, false)
		var lost int64
		for r := 0; r < p; r++ {
			equalEdges(t, fmt.Sprintf("drop ranks=%d rank=%d", p, r), dropped[r].Edges, baseline[r].Edges)
			lost += filters[r].dropped
		}
		if lost == 0 {
			t.Fatalf("ranks=%d: filter dropped no publishes; loss path unexercised", p)
		}
	}
}

// The streaming sink contract: the sink is called from the rank
// goroutines only — concurrently across ranks, never within one (run
// under -race this checks the engine's side) — and the streamed edges
// are exactly the sequential edge set.
func TestWorkersSinkConcurrent(t *testing.T) {
	pr := model.Params{N: 8_000, X: 3, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 21, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	part, err := partition.New(partition.KindUCP, pr.N, p)
	if err != nil {
		t.Fatal(err)
	}
	var count, sum int64
	var inSink [p]int32
	res, err := Run(Options{
		Params: pr, Part: part, Seed: 21,
		Sink: func(rank int, e graph.Edge) {
			if atomic.AddInt32(&inSink[rank], 1) != 1 {
				t.Errorf("rank %d: sink entered concurrently", rank)
			}
			atomic.AddInt64(&count, 1)
			atomic.AddInt64(&sum, e.U^(e.V<<1))
			atomic.AddInt32(&inSink[rank], -1)
		},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != nil {
		t.Fatal("sink run materialised a graph")
	}
	if count != pr.M() {
		t.Fatalf("sink saw %d edges, want %d", count, pr.M())
	}
	var wantSum int64
	for _, e := range sg.Edges {
		wantSum += e.U ^ (e.V << 1)
	}
	if sum != wantSum {
		t.Fatalf("sink edge checksum %d, want sequential %d", sum, wantSum)
	}
}

// RunToShards at 2 ranks: the shards must union to a valid graph with
// exactly M edges.
func TestWorkersToShards(t *testing.T) {
	pr := model.Params{N: 5_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := RunToShards(Options{Params: pr, Part: part, Seed: 3}, dir); err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadShards(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != pr.M() {
		t.Fatalf("shards union to %d edges, want %d", g.M(), pr.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// A graph barely larger than the rank count — ten nodes per rank —
// still generates, and the per-rank stats add up.
func TestWorkersClampAndStats(t *testing.T) {
	pr := model.Params{N: 40, X: 3, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Params: pr, Part: part, Seed: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	var edges int64
	for _, st := range res.Ranks {
		edges += st.Edges
		if st.BusyTime < 0 || st.BusyTime > st.WallTime {
			t.Fatalf("rank %d: busy %v outside [0, wall %v]", st.Rank, st.BusyTime, st.WallTime)
		}
	}
	if edges != pr.M() {
		t.Fatalf("ranks report %d edges, want %d", edges, pr.M())
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Trace collection at 2 ranks: per-slot decisions land in the shared
// trace without racing (disjoint slot ranges per rank), and the copy
// fraction stays where p puts it.
func TestWorkersTrace(t *testing.T) {
	pr := model.Params{N: 8_000, X: 4, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Params: pr, Part: part, Seed: 17}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace collected")
	}
	copied := 0
	for _, c := range res.Trace.Copied {
		if c {
			copied++
		}
	}
	frac := float64(copied) / float64(res.Trace.Slots())
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("copied fraction %.3f outside [0.35, 0.65]", frac)
	}
}
