package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pagen/internal/ckpt"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/seq"
	"pagen/internal/transport"
)

// edgeKey is a canonical edge for set comparison.
type edgeKey struct{ u, v int64 }

func edgeSet(t *testing.T, edges []graph.Edge) map[edgeKey]struct{} {
	t.Helper()
	s := make(map[edgeKey]struct{}, len(edges))
	for _, e := range edges {
		c := e.Canonical()
		k := edgeKey{c.U, c.V}
		if _, dup := s[k]; dup {
			t.Fatalf("duplicate edge (%d,%d)", c.U, c.V)
		}
		s[k] = struct{}{}
	}
	return s
}

func sameEdgeSet(t *testing.T, label string, got []graph.Edge, want map[edgeKey]struct{}) {
	t.Helper()
	gs := edgeSet(t, got)
	if len(gs) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(gs), len(want))
	}
	for k := range gs {
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: edge (%d,%d) not in sequential output", label, k.u, k.v)
		}
	}
}

// sortedEdges returns a sorted copy of edges: the multiset in a
// canonical order.
func sortedEdges(edges []graph.Edge) []graph.Edge {
	s := slices.Clone(edges)
	slices.SortFunc(s, func(a, b graph.Edge) int {
		if a.U != b.U {
			return int(a.U - b.U)
		}
		return int(a.V - b.V)
	})
	return s
}

// diffCase is one drawn configuration of the differential test.
type diffCase struct {
	pr        model.Params
	seed      uint64
	ranks     int
	kind      partition.Kind
	transport string
	hub       int64
	resolve   ResolveMode
	stream    bool
}

func (c diffCase) String() string {
	return fmt.Sprintf("n=%d x=%d p=%.2f seed=%d ranks=%d scheme=%v transport=%s hub=%d resolve=%v stream=%v",
		c.pr.N, c.pr.X, c.pr.P, c.seed, c.ranks, c.kind, c.transport, c.hub, c.resolve, c.stream)
}

// drawDiffCase draws one configuration from the replay seed: n up to
// 2·10^4, x 1-5, p in
// [0.05, 0.95], ranks 1-4, every scheme, both in-process transports,
// hub cache off or auto, both resolve modes, streamed or in memory.
func drawDiffCase(replay int64) diffCase {
	r := rand.New(rand.NewSource(replay))
	x := 1 + r.Intn(5)
	n := int64(x) + 2 + r.Int63n(int64(20_000-x-2))
	c := diffCase{
		pr:        model.Params{N: n, X: x, P: 0.05 + 0.9*r.Float64()},
		seed:      r.Uint64(),
		ranks:     1 + r.Intn(4),
		kind:      allKinds[r.Intn(len(allKinds))],
		transport: []string{"shm", "local"}[r.Intn(2)],
		hub:       []int64{-1, 0}[r.Intn(2)],
		resolve:   []ResolveMode{ResolveWire, ResolveRecompute}[r.Intn(2)],
		stream:    r.Intn(2) == 1,
	}
	return c
}

// The determinism contract as one randomized differential oracle: for
// every drawn configuration the engine's output is the edge multiset of
// seq.CopyModel for the same (n, x, p, seed), and — where the output
// order is node order (one rank, or a contiguous partition) — the very
// same bytes. Each case is a subtest named by its replay seed; a
// failure prints the command that replays it alone.
func TestDifferentialRandomConfigs(t *testing.T) {
	const base, cases = 20_261_017, 32
	for i := int64(0); i < cases; i++ {
		replay := base + i
		c := drawDiffCase(replay)
		t.Run(fmt.Sprintf("replay=%d", replay), func(t *testing.T) {
			t.Parallel()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%s: %s\nreplay: go test ./internal/core -run 'TestDifferentialRandomConfigs/replay=%d$'",
					c, fmt.Sprintf(format, args...), replay)
			}
			want, _, err := seq.CopyModel(c.pr, c.seed, seq.CopyModelOptions{})
			if err != nil {
				fail("seq: %v", err)
			}
			part, err := partition.New(c.kind, c.pr.N, c.ranks)
			if err != nil {
				fail("partition: %v", err)
			}
			opts := Options{
				Params: c.pr, Part: part, Seed: c.seed, Transport: c.transport,
				HubPrefix: c.hub, Resolve: c.resolve,
			}
			if c.stream {
				opts.StreamDir = t.TempDir()
				opts.StreamBlockEdges = 256
			}
			res, err := Run(opts, false)
			if err != nil {
				fail("run: %v", err)
			}
			var got []graph.Edge
			if c.stream {
				got = streamEdges(t, opts.StreamDir, c.ranks)
			} else {
				got = res.Graph.Edges
			}
			if !slices.Equal(sortedEdges(got), sortedEdges(want.Edges)) {
				fail("edge multiset differs from seq.CopyModel (%d vs %d edges)", len(got), len(want.Edges))
			}
			_, contiguous := part.(partition.Consecutive)
			if (c.ranks == 1 || contiguous) && !slices.Equal(got, want.Edges) {
				fail("edge order differs from seq.CopyModel")
			}
		})
	}
}

// Adaptive polling (PollEvery == 0) must not change the output — only
// the service schedule.
func TestAdaptivePollEveryDeterministic(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 13, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := edgeSet(t, sg.Edges)
	part, err := partition.New(partition.KindUCP, pr.N, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Params: pr, Part: part, Seed: 13, PollEvery: 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	sameEdgeSet(t, "adaptive", res.Graph.Edges, want)
}

// fingerprint is an order-sensitive FNV-1a hash of an edge list.
func fingerprint(edges []graph.Edge) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint64(b[:8], uint64(e.U))
		binary.LittleEndian.PutUint64(b[8:], uint64(e.V))
		h.Write(b[:])
	}
	return h.Sum64()
}

// testdata/ckpt-v5-workers2 is a base+delta v5 chain (epochs 1 and 2)
// written by the engine when each rank still ran two worker goroutines:
// every snapshot holds two 'W' sections, and rank 1's sections each
// hold a coalescing chain for some of the same slots. Resuming it must
// merge the sections into the rank's single tables — keeping those
// chains apart — and reproduce the uninterrupted output byte for byte.
func TestResumeMultiWorkerSnapshot(t *testing.T) {
	const (
		fixture = "testdata/ckpt-v5-workers2"
		ranks   = 2
		seed    = 29
		hub     = 600
		// Output fingerprint of the writing engine's uninterrupted run.
		want = uint64(0xf857cacc2cb87713)
	)
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	newPart := func() partition.Scheme {
		part, err := partition.New(partition.KindRRP, pr.N, ranks)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}

	// The fixture exercises what it claims to: two sections per rank,
	// and on rank 1 a slot chained in both.
	s, err := ckpt.Materialize(fixture, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workers) != 2 {
		t.Fatalf("fixture rank 1 has %d W sections, want 2", len(s.Workers))
	}
	chained := map[int64]int{}
	for _, ws := range s.Workers {
		seen := map[int64]bool{}
		for _, r := range ws.Remote {
			if !seen[r.Slot] {
				seen[r.Slot] = true
				chained[r.Slot]++
			}
		}
	}
	shared := 0
	for _, c := range chained {
		if c > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("fixture has no slot chained in two W sections")
	}

	// Resume negotiation settles on the fixture's newest epoch (not a
	// fresh start).
	dir := copyFixture(t, fixture)
	g, err := transport.NewShmGroup(ranks)
	if err != nil {
		t.Fatal(err)
	}
	epochs := make([]int64, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e, err := newEngine(g.Endpoint(r), Options{Params: pr, Part: newPart(), Seed: seed, HubPrefix: hub,
				Checkpoint: &CheckpointOptions{Dir: dir, Resume: true}})
			if err != nil {
				errs[r] = err
				return
			}
			defer e.ck.writer.shutdown()
			if errs[r] = e.negotiateResume(); errs[r] == nil && e.resumeSnap != nil {
				epochs[r] = e.resumeSnap.Epoch
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < ranks; r++ {
		if errs[r] != nil || epochs[r] != 2 {
			t.Fatalf("rank %d negotiated epoch %d (%v), want 2", r, epochs[r], errs[r])
		}
	}

	fresh, err := Run(Options{Params: pr, Part: newPart(), Seed: seed, HubPrefix: hub}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(fresh.Graph.Edges); got != want {
		t.Fatalf("uninterrupted run fingerprint %016x, want %016x", got, want)
	}
	for _, tr := range []string{"shm", "local"} {
		res, err := Run(Options{Params: pr, Part: newPart(), Seed: seed, HubPrefix: hub, Transport: tr,
			Checkpoint: &CheckpointOptions{Dir: copyFixture(t, fixture), Resume: true}}, false)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		equalEdges(t, "resumed "+tr, res.Graph.Edges, fresh.Graph.Edges)
	}
}
