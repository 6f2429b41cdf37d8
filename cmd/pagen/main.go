// Command pagen generates a preferential-attachment network with the
// parallel algorithm and writes it as an edge list.
//
// Usage:
//
//	pagen -n 1000000 -x 4 -ranks 8 -scheme RRP -o graph.txt
//	pagen -n 1000000 -x 4 -format binary -o graph.bin -stats
//	pagen -n 1000000 -x 4 -ranks 8 -metrics metrics.json -o graph.txt
//	pagen -n 1000000 -x 4 -checkpoint-dir ck -checkpoint-every 5000000 -o graph.txt
//	pagen -n 1000000 -x 4 -checkpoint-dir ck -resume -o graph.txt
//	pagen -n 100000000 -x 4 -stream-dir shards -checkpoint-dir ck -checkpoint-every 20000000
//
// -metrics FILE exports the run's observability record (per-rank
// counters, wait-chain histograms, and the per-node received-message
// load with the Lemma 3.4 prediction alongside) as JSON; "-" writes it
// to stderr.
//
// -checkpoint-dir DIR with -checkpoint-every N snapshots every rank's
// engine state roughly every N protocol events; a later invocation with
// the same parameters plus -resume continues from the newest complete
// epoch and produces the identical graph. See docs/OPERATIONS.md.
//
// -stream-dir DIR spills each rank's edges into a compressed,
// CRC-protected shard file (docs/SHARD_FORMAT.md) with bounded resident
// memory, so n is limited by disk rather than RAM. It composes with
// checkpointing: a killed run resumed with -resume truncates each shard
// to its snapshot's durable mark and regenerates exactly the missing
// suffix. Read the shards with pa-analyze -stream-dir.
//
// -transport selects how the in-process ranks exchange message batches:
// shm (the default; batches are handed between rank goroutines by
// reference, no serialization) or local (every batch round-trips
// through the wire codec — the serialization ablation). The output is
// byte-identical for both; tcp is rejected here (use pa-tcp).
//
// -ranks defaults to the host's core count (GOMAXPROCS): each rank is
// one goroutine. The edge multiset is the same for every rank count,
// but the order of the written edges follows the rank count under RRP,
// so pin -ranks when files must be byte-reproducible across hosts.
//
// Flag combinations and -format are checked before anything is
// generated or any file is created.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"

	"pagen"
	"pagen/internal/graph"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pagen:", err)
		os.Exit(1)
	}
}

// engineOnly are the flags that configure the parallel engine; -seq
// rejects them instead of silently ignoring them.
var engineOnly = []string{
	"ranks", "transport", "scheme", "hub-prefix", "resolve", "recompute-depth", "stats",
	"shard-dir", "stream-dir", "stream-block-edges", "metrics",
	"checkpoint-dir", "checkpoint-every", "checkpoint-keep", "checkpoint-full-every", "resume",
}

func run(args []string) error {
	fs := flag.NewFlagSet("pagen", flag.ExitOnError)
	var (
		n           = fs.Int64("n", 100000, "number of nodes")
		x           = fs.Int("x", 4, "edges per new node")
		p           = fs.Float64("p", 0.5, "direct-attachment probability (0.5 = exact BA)")
		ranks       = fs.Int("ranks", runtime.GOMAXPROCS(0), "number of parallel ranks, one goroutine each; defaults to GOMAXPROCS (the core count)")
		transport   = fs.String("transport", "shm", "in-process transport between ranks: shm (by-reference) or local (serialization ablation); output is identical for both")
		scheme      = fs.String("scheme", "RRP", "partitioning scheme: UCP, LCP, RRP, ExactCP")
		seed        = fs.Uint64("seed", 1, "random seed")
		hub         = fs.Int64("hub-prefix", 0, "hub-prefix cache size H (0 = auto, <0 = off); output is identical for every setting")
		resolve     = fs.String("resolve", "wire", "non-local dependency resolution: wire or recompute; output is identical in both modes")
		rcDepth     = fs.Int("recompute-depth", 0, "recompute replay chain depth cap before wire fallback (0 = ~2*log2(n))")
		out         = fs.String("o", "", "output file (default stdout)")
		format      = fs.String("format", "text", "output format: text or binary")
		stats       = fs.Bool("stats", false, "print per-rank statistics to stderr")
		seq         = fs.Bool("seq", false, "use the sequential copy model instead")
		shardDir    = fs.String("shard-dir", "", "stream per-rank edge shards to this directory instead of a single output")
		streamDir   = fs.String("stream-dir", "", "spill compressed per-rank edge shards to this directory with bounded memory (docs/SHARD_FORMAT.md); composes with -checkpoint-dir")
		streamBlock = fs.Int("stream-block-edges", 0, "edge records buffered per stream block before a sorted flush (0 = 65536)")
		metrics     = fs.String("metrics", "", "write run metrics JSON to this file (\"-\" = stderr)")
		ckptDir     = fs.String("checkpoint-dir", "", "write per-rank snapshots to this directory (see docs/OPERATIONS.md)")
		ckptN       = fs.Int64("checkpoint-every", 0, "protocol events between checkpoint epochs (requires -checkpoint-dir)")
		ckptKeep    = fs.Int("checkpoint-keep", 0, "full epochs to retain per rank (0 = default)")
		ckptFull    = fs.Int("checkpoint-full-every", 0, "full-snapshot cadence: every Nth epoch is full, the rest are incremental deltas (0 or 1 = all full)")
		resume      = fs.Bool("resume", false, "resume from the latest restorable epoch in -checkpoint-dir")
	)
	fs.Parse(args)

	// Every check runs before generation and before any file exists.
	if *seq {
		var err error
		fs.Visit(func(f *flag.Flag) {
			if err == nil && slices.Contains(engineOnly, f.Name) {
				err = fmt.Errorf("-%s needs the parallel engine (drop -seq)", f.Name)
			}
		})
		if err != nil {
			return err
		}
	}
	if *ranks < 1 {
		return fmt.Errorf("-ranks %d: need at least 1 rank", *ranks)
	}
	switch *transport {
	case "shm", "local":
	case "tcp":
		return fmt.Errorf("-transport tcp: pagen runs its ranks in one process; use pa-tcp for the TCP mesh")
	default:
		return fmt.Errorf("-transport %q: want shm or local", *transport)
	}
	write := graph.WriteText
	switch *format {
	case "text":
	case "binary":
		write = graph.WriteBinary
	default:
		return fmt.Errorf("-format %q: want text or binary", *format)
	}
	ckptOn := *ckptDir != "" || *ckptN != 0 || *resume
	if ckptOn && *shardDir != "" {
		return fmt.Errorf("checkpointing is incompatible with -shard-dir (snapshots cannot rewind streamed edges; use -stream-dir, whose shards resume)")
	}
	if *streamDir != "" {
		switch {
		case *shardDir != "":
			return fmt.Errorf("-stream-dir and -shard-dir are mutually exclusive edge destinations")
		case *out != "":
			return fmt.Errorf("-stream-dir writes per-rank shards; it is incompatible with -o (convert with pa-analyze -stream-dir -export-binary)")
		}
	}
	cfg := pagen.Config{N: *n, X: *x, P: *p, Ranks: *ranks,
		Transport: *transport,
		Scheme:    *scheme, Seed: *seed, HubPrefix: *hub,
		Resolve: *resolve, RecomputeDepth: *rcDepth,
		// Per-node load counters are the one metrics input snapshots do
		// not capture; under checkpointing -metrics still exports
		// everything else (pause/write histograms included), just
		// without the load curve.
		CollectNodeLoad: *metrics != "" && !ckptOn,
		CheckpointDir:   *ckptDir, CheckpointEvery: *ckptN,
		CheckpointKeep: *ckptKeep, CheckpointFullEvery: *ckptFull, Resume: *resume,
		StreamDir: *streamDir, StreamBlockEdges: *streamBlock}

	if *streamDir != "" {
		res, err := pagen.Generate(cfg)
		if err != nil {
			return err
		}
		if *metrics != "" {
			if err := writeMetrics(*metrics, pagen.Metrics(res, cfg)); err != nil {
				return err
			}
		}
		var m, blocks, bytes int64
		for _, st := range res.Ranks {
			m += st.Edges
			blocks += st.SinkBlocks
			bytes += st.SinkBytes
		}
		fmt.Fprintf(os.Stderr, "streamed %d edges (%d blocks, %d bytes) to %s in %v (%.3g edges/s)\n",
			m, blocks, bytes, *streamDir, res.Elapsed, pagen.EdgesPerSecond(res))
		return nil
	}

	if *shardDir != "" {
		res, err := pagen.GenerateToShards(cfg, *shardDir)
		if err != nil {
			return err
		}
		if *metrics != "" {
			if err := writeMetrics(*metrics, pagen.Metrics(res, cfg)); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %d shards to %s in %v (%.3g edges/s)\n",
			len(res.Ranks), *shardDir, res.Elapsed, pagen.EdgesPerSecond(res))
		return nil
	}

	var g *pagen.Graph
	if *seq {
		var err error
		g, _, err = pagen.GenerateSeq(cfg)
		if err != nil {
			return err
		}
	} else {
		res, err := pagen.Generate(cfg)
		if err != nil {
			return err
		}
		g = res.Graph
		if *metrics != "" {
			if err := writeMetrics(*metrics, pagen.Metrics(res, cfg)); err != nil {
				return err
			}
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "generated %d edges in %v (%.3g edges/s)\n",
				g.M(), res.Elapsed, pagen.EdgesPerSecond(res))
			for _, st := range res.Ranks {
				fmt.Fprintf(os.Stderr,
					"rank %3d: nodes=%d edges=%d reqS=%d reqR=%d resS=%d resR=%d frames=%d retries=%d load=%d\n",
					st.Rank, st.Nodes, st.Edges,
					st.Comm.RequestsSent, st.Comm.RequestsRecv,
					st.Comm.ResolvedSent, st.Comm.ResolvedRecv,
					st.Comm.FramesSent, st.Retries, st.TotalLoad())
			}
		}
	}

	if *out == "" {
		return write(os.Stdout, g)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics exports the run metrics JSON to path ("-" = stderr).
func writeMetrics(path string, m *pagen.RunMetrics) error {
	if m == nil {
		return fmt.Errorf("no metrics collected")
	}
	if path == "-" {
		return m.WriteJSON(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
