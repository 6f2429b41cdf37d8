// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 4). Run with:
//
//	go test -bench=. -benchmem
//
// Sizes are scaled from the paper's cluster runs to a single host; pass
// -paper.n to rescale (see EXPERIMENTS.md for paper-vs-measured values).
// Custom metrics attached to each benchmark carry the figures' series:
// model_speedup (load-model prediction), imbalance, gamma, edges/s.
package pagen

import (
	"flag"
	"fmt"
	"sync"
	"testing"
	"time"

	"pagen/internal/bench"
	"pagen/internal/comm"
	"pagen/internal/core"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/msg"
	"pagen/internal/partition"
	"pagen/internal/seq"
	"pagen/internal/transport"
	"pagen/internal/xrand"
)

var paperN = flag.Int64("paper.n", 0, "override the scaled-down n used by the figure benchmarks")

func scaledN(def int64) int64 {
	if *paperN > 0 {
		return *paperN
	}
	return def
}

// BenchmarkFig3LCPSolver regenerates Figure 3: solving Eqn 10 exactly and
// via the LCP linear approximation (paper: n=1e8, P=160).
func BenchmarkFig3LCPSolver(b *testing.B) {
	n := scaledN(1_000_000)
	var maxDev float64
	for i := 0; i < b.N; i++ {
		rows := bench.Fig3(n, 160, partition.DefaultB)
		maxDev = 0
		for _, r := range rows {
			d := float64(r.ExactLo - r.LinearLo)
			if d < 0 {
				d = -d
			}
			if d/float64(n) > maxDev {
				maxDev = d / float64(n)
			}
		}
	}
	b.ReportMetric(maxDev*100, "max_boundary_dev_%")
}

// BenchmarkFig4DegreeDistribution regenerates Figure 4: the log-log
// degree distribution and its exponent (paper: n=1e9, x=4, gamma=2.7).
func BenchmarkFig4DegreeDistribution(b *testing.B) {
	pr := model.Params{N: scaledN(200_000), X: 4, P: 0.5}
	var gamma, slope float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig4(pr, partition.KindRRP, 8, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		gamma = res.Report.Gamma
		slope = res.Report.LogLogSlope
	}
	b.ReportMetric(gamma, "gamma")
	b.ReportMetric(-slope, "loglog_exponent")
}

// BenchmarkFig5StrongScaling regenerates Figure 5: speedup versus P for
// UCP/LCP/RRP at fixed problem size (paper: n=1e9, x=6, P<=768).
func BenchmarkFig5StrongScaling(b *testing.B) {
	pr := model.Params{N: scaledN(200_000), X: 6, P: 0.5}
	for _, kind := range []partition.Kind{partition.KindUCP, partition.KindLCP, partition.KindRRP} {
		for _, p := range []int{8, 32, 128} {
			b.Run(fmt.Sprintf("%s/P=%d", kind, p), func(b *testing.B) {
				var rows []bench.ScalingRow
				var err error
				for i := 0; i < b.N; i++ {
					rows, err = bench.StrongScaling(pr, []partition.Kind{kind}, []int{p}, 3)
					if err != nil {
						b.Fatal(err)
					}
				}
				r := rows[0]
				b.ReportMetric(r.ModelSpeedup, "model_speedup")
				b.ReportMetric(r.Imbalance, "imbalance")
				b.ReportMetric(r.EdgesPerSec, "edges/s")
			})
		}
	}
}

// BenchmarkFig6WeakScaling regenerates Figure 6: runtime with fixed work
// per processor (paper: 1e7 edges per processor).
func BenchmarkFig6WeakScaling(b *testing.B) {
	perRank := scaledN(50_000)
	for _, kind := range []partition.Kind{partition.KindUCP, partition.KindLCP, partition.KindRRP} {
		for _, p := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/P=%d", kind, p), func(b *testing.B) {
				var rows []bench.ScalingRow
				var err error
				for i := 0; i < b.N; i++ {
					rows, err = bench.WeakScaling(perRank, 6, 0.5, []partition.Kind{kind}, []int{p}, 5)
					if err != nil {
						b.Fatal(err)
					}
				}
				r := rows[0]
				// Perfect weak scaling = constant normalised makespan;
				// report per-rank model efficiency.
				b.ReportMetric(r.ModelSpeedup/float64(p), "model_efficiency")
				b.ReportMetric(r.Imbalance, "imbalance")
			})
		}
	}
}

// BenchmarkFig7Distributions regenerates Figure 7: per-processor node and
// message distributions (paper: n=1e8, x=10, P=160).
func BenchmarkFig7Distributions(b *testing.B) {
	pr := model.Params{N: scaledN(100_000), X: 10, P: 0.5}
	kinds := []partition.Kind{partition.KindUCP, partition.KindLCP, partition.KindRRP}
	var rows []bench.Fig7Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Fig7(pr, kinds, 160, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the total-load spread (max/min) per scheme — the Figure 7d
	// signal: UCP >> LCP > RRP.
	spread := map[string][2]int64{}
	for _, r := range rows {
		s := spread[r.Scheme]
		if s[0] == 0 || r.Total < s[0] {
			s[0] = r.Total
		}
		if r.Total > s[1] {
			s[1] = r.Total
		}
		spread[r.Scheme] = s
	}
	for scheme, s := range spread {
		b.ReportMetric(float64(s[1])/float64(s[0]), "load_spread_"+scheme)
	}
}

// BenchmarkHeadlineLargeNetwork regenerates the Section 4.5 headline:
// the largest network the host can generate with RRP, reporting
// throughput (paper: 50B edges in 123 s on 768 processors = 4.1e8
// edges/s).
func BenchmarkHeadlineLargeNetwork(b *testing.B) {
	pr := model.Params{N: scaledN(2_000_000), X: 5, P: 0.5}
	var eps float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Headline(pr, 8, 9)
		if err != nil {
			b.Fatal(err)
		}
		eps = res.EdgesPerSec
	}
	b.ReportMetric(eps, "edges/s")
}

// BenchmarkTheorem33ChainLengths measures dependency-chain statistics
// against the theorem's ln n / 5 ln n bounds.
func BenchmarkTheorem33ChainLengths(b *testing.B) {
	pr := model.Params{N: scaledN(500_000), X: 1, P: 0.5}
	var res bench.ChainResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = bench.Chains(pr, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Mean, "mean_chain")
	b.ReportMetric(float64(res.Max), "max_chain")
	b.ReportMetric(res.LogN, "ln_n")
}

// BenchmarkLemma34MessageLoad measures the per-node request-load profile
// the lemma predicts (E[M_k] = (1-p)(H_{n-1} - H_k)).
func BenchmarkLemma34MessageLoad(b *testing.B) {
	pr := model.Params{N: scaledN(500_000), X: 1, P: 0.5}
	var firstDecile float64
	for i := 0; i < b.N; i++ {
		_, tr, err := seq.CopyModel(pr, uint64(i)+1, seq.CopyModelOptions{RecordTrace: true})
		if err != nil {
			b.Fatal(err)
		}
		var head int64
		count := 0
		for s := range tr.K {
			if tr.Copied[s] && tr.K[s] < pr.N/10 {
				head++
			}
			count++
		}
		firstDecile = float64(head)
	}
	b.ReportMetric(firstDecile, "requests_first_decile")
}

// --- Ablations (design choices DESIGN.md calls out) ---

// BenchmarkAblationBufferCap sweeps the message-buffer capacity
// (Section 3.5.1 argues buffering is essential; cap=1 is unbuffered).
func BenchmarkAblationBufferCap(b *testing.B) {
	pr := model.Params{N: 100_000, X: 4, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			var frames int64
			for i := 0; i < b.N; i++ {
				res, err := Generate(Config{N: pr.N, X: pr.X, Ranks: 8, Seed: uint64(i), BufferCap: cap})
				if err != nil {
					b.Fatal(err)
				}
				frames = 0
				for _, st := range res.Ranks {
					frames += st.Comm.FramesSent
				}
				_ = part
			}
			b.ReportMetric(float64(frames), "frames")
		})
	}
}

// BenchmarkAblationPollEvery sweeps the generation-loop polling interval.
func BenchmarkAblationPollEvery(b *testing.B) {
	for _, every := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("poll=%d", every), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Generate(Config{N: 100_000, X: 4, Ranks: 8, Seed: uint64(i), PollEvery: every}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSchemeConstruction compares partition-construction
// cost: the reason LCP exists is that ExactCP is expensive to build and
// query (Criterion A).
func BenchmarkAblationSchemeConstruction(b *testing.B) {
	n := int64(10_000_000)
	for _, kind := range []partition.Kind{partition.KindUCP, partition.KindLCP, partition.KindRRP, partition.KindExactCP} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.New(kind, n, 768); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationApproxAccuracy compares the exact algorithm against
// the Yoo–Henderson-style approximate baseline ([28]) across sync
// intervals, reporting each variant's power-law-exponent error against
// a sequential BA reference — the accuracy-vs-tuning tradeoff the exact
// algorithm removes.
func BenchmarkAblationApproxAccuracy(b *testing.B) {
	n := int64(50_000)
	ref, err := GenerateBA(Config{N: n, X: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	refRep, err := Analyze(ref, 8)
	if err != nil {
		b.Fatal(err)
	}
	gammaErr := func(g *Graph) float64 {
		rep, err := Analyze(g, 8)
		if err != nil {
			b.Fatal(err)
		}
		d := rep.Gamma - refRep.Gamma
		if d < 0 {
			d = -d
		}
		return d
	}
	b.Run("exact", func(b *testing.B) {
		var e float64
		for i := 0; i < b.N; i++ {
			res, err := Generate(Config{N: n, X: 4, Ranks: 8, Seed: uint64(i) + 2})
			if err != nil {
				b.Fatal(err)
			}
			e = gammaErr(res.Graph)
		}
		b.ReportMetric(e, "gamma_error")
	})
	for _, interval := range []int64{256, n} {
		b.Run(fmt.Sprintf("approx/sync=%d", interval), func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				g, err := GenerateApprox(ApproxConfig{N: n, X: 4, Ranks: 8, SyncInterval: interval, Seed: uint64(i) + 3})
				if err != nil {
					b.Fatal(err)
				}
				e = gammaErr(g)
			}
			b.ReportMetric(e, "gamma_error")
		})
	}
}

// BenchmarkAblationStreamingSink compares materialised versus streamed
// (on-the-fly, §3.5) generation.
func BenchmarkAblationStreamingSink(b *testing.B) {
	cfg := Config{N: 200_000, X: 4, Ranks: 8}
	b.Run("materialised", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i)
			if _, err := Generate(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streamed", func(b *testing.B) {
		b.ReportAllocs()
		var counts [8]int64
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i)
			if _, err := GenerateStream(cfg, func(rank int, e Edge) {
				// Each rank calls the sink from its own goroutine only,
				// so a per-rank counter needs no atomics.
				counts[rank]++
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLatency runs the engine over transports with injected
// one-way latency (the paper's cluster has ~1 µs InfiniBand; Ethernet
// would be ~50-500 µs). Dependency chains are O(log n) and message
// batches pipeline, so runtime should degrade gracefully, not
// proportionally to latency.
func BenchmarkAblationLatency(b *testing.B) {
	pr := model.Params{N: 50_000, X: 4, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, delay := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond} {
		b.Run(fmt.Sprintf("delay=%v", delay), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				group, err := transport.NewLocalGroup(4)
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				errs := make([]error, 4)
				for r := 0; r < 4; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						tr := transport.NewDelayed(group.Endpoint(r), delay)
						defer tr.Close()
						_, errs[r] = core.RunRank(tr, core.Options{Params: pr, Part: part, Seed: uint64(i)})
					}(r)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Hot path (the zero-allocation optimisation layers) ---

// hotPathRequestBatch builds a buffer's worth of requests with the
// near-monotone t and node-scale k the communicator actually produces.
func hotPathRequestBatch(size int) []msg.Message {
	ms := make([]msg.Message, size)
	t := int64(1_000_000)
	for i := range ms {
		t += int64(i % 3)
		ms[i] = msg.Request(t, i%4, t/2, i%4)
	}
	return ms
}

// BenchmarkHotPathCodec compares the fixed-width (v1) and compact (v2)
// batch encodings on a typical request frame, reporting bytes/msg —
// the wire-volume reduction the compact codec buys. Both variants
// reuse their destination buffer, so allocs/op isolates codec cost.
func BenchmarkHotPathCodec(b *testing.B) {
	ms := hotPathRequestBatch(256)
	b.Run("encode-v1", func(b *testing.B) {
		buf := make([]byte, 0, len(ms)*msg.EncodedSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, m := range ms {
				buf = msg.AppendEncode(buf, m)
			}
		}
		b.ReportMetric(float64(len(buf))/float64(len(ms)), "bytes/msg")
	})
	b.Run("encode-v2", func(b *testing.B) {
		buf := make([]byte, 0, len(ms)*msg.EncodedSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = msg.AppendEncodeBatchV2(buf[:0], ms)
		}
		b.ReportMetric(float64(len(buf))/float64(len(ms)), "bytes/msg")
	})
	b.Run("decode-v2", func(b *testing.B) {
		frame := msg.EncodeBatchV2(ms)
		dst := make([]msg.Message, 0, len(ms))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = msg.DecodeBatch(dst[:0], frame)
			if err != nil {
				b.Fatal(err)
			}
		}
		if len(dst) != len(ms) {
			b.Fatalf("decoded %d messages", len(dst))
		}
	})
}

// BenchmarkHotPathComm cycles one buffered frame through the
// communicator pair — Send×cap triggers the flush, Poll drains it.
// Steady state exercises the leased-frame pool, the compact codec, and
// the mailbox's capacity-retaining pop together; allocs/op approaches
// zero once the pools are warm.
func BenchmarkHotPathComm(b *testing.B) {
	const batch = 64
	g, err := transport.NewLocalGroup(2)
	if err != nil {
		b.Fatal(err)
	}
	a := comm.New(g.Endpoint(0), comm.Config{BufferCap: batch})
	rcv := comm.New(g.Endpoint(1), comm.Config{})
	m := msg.Request(1, 0, 2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			if err := a.Send(1, m); err != nil {
				b.Fatal(err)
			}
		}
		ms, err := rcv.Poll()
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) != batch {
			b.Fatalf("drained %d messages, want %d", len(ms), batch)
		}
	}
}

// BenchmarkHotPathMerge gathers 8 shards of 2^15 edges (over the
// parallel-copy threshold) into one pre-sized destination — the final
// per-rank shard gather of a distributed run.
func BenchmarkHotPathMerge(b *testing.B) {
	const (
		nShards  = 8
		shardLen = 1 << 15
	)
	shards := make([][]graph.Edge, nShards)
	for s := range shards {
		shards[s] = make([]graph.Edge, shardLen)
		for i := range shards[s] {
			shards[s][i] = graph.Edge{U: int64(s*shardLen + i + 1), V: int64(i)}
		}
	}
	b.ReportAllocs()
	b.SetBytes(nShards * shardLen * 16) // two int64 endpoints per edge
	b.ResetTimer()
	var g *graph.Graph
	for i := 0; i < b.N; i++ {
		g = graph.Merge(nShards*shardLen+1, shards...)
	}
	if g.M() != nShards*shardLen {
		b.Fatalf("merge produced %d edges", g.M())
	}
}

// BenchmarkErdosRenyiParallel covers the dependency-free contrast model
// (the future-work direction the conclusion names).
func BenchmarkErdosRenyiParallel(b *testing.B) {
	n := int64(500_000)
	p := 8.0 / float64(n-1)
	for i := 0; i < b.N; i++ {
		if _, err := ErdosRenyiParallel(n, p, 8, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialBaselines compares the sequential generators the
// paper discusses in Section 3.1.
func BenchmarkSequentialBaselines(b *testing.B) {
	pr := model.Params{N: 100_000, X: 4, P: 0.5}
	b.Run("CopyModel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := seq.CopyModel(pr, uint64(i), seq.CopyModelOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BatageljBrandes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := seq.BatageljBrandes(pr, xrand.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NaivePA", func(b *testing.B) {
		small := model.Params{N: 5_000, X: 4, P: 0.5}
		for i := 0; i < b.N; i++ {
			if _, err := seq.NaivePA(small, xrand.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
