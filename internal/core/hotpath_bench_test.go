package core

import (
	"testing"

	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// BenchmarkHotPathEngine measures the steady-state generation loop: one
// node's x attachment placements (advance → resolveLocal → emit) against
// a warm engine with a no-op sink. This is the
// zero-allocation claim of the hot path — after bootstrap, expect 0
// allocs/op: the per-node RNG stream lives on the engine, the waiter
// table recycles its arena, and the sink bypasses the edge store.
func BenchmarkHotPathEngine(b *testing.B) {
	const (
		n = int64(1 << 16)
		x = 4
	)
	pr := model.Params{N: n, X: x, P: 0.5}
	part, err := partition.New(partition.KindRRP, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := transport.NewLocalGroup(1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := newEngine(g.Endpoint(0), Options{
		Params: pr,
		Part:   part,
		Seed:   1,
		Sink:   func(int, graph.Edge) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	e.bootstrap()

	t := int64(x + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t >= n {
			t = x + 1
		}
		// Re-open this node's slots so the resolve path runs exactly as
		// at generation time; every earlier node stays resolved, so copy
		// sources answer immediately, as in a settled single-rank run.
		base := e.slot(t, 0)
		for j := 0; j < x; j++ {
			e.f[base+int64(j)] = -1
		}
		e.genNode(t)
		if e.err != nil {
			b.Fatal(e.err)
		}
		t++
	}
}
