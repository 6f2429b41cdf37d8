// Command pa-hotpath measures the constant factors of the generation hot
// path — ns per edge, allocations per edge, bytes per frame — and
// maintains the BENCH_hotpath.json trajectory file that optimisation PRs
// compare against.
//
//	pa-hotpath -n 1000000 -x 4 -ranks 4,8                  # print TSV
//	pa-hotpath -n 1000000 -x 4 -ranks 1,2,4                # rank sweep
//	pa-hotpath ... -pollevery 0,16,64,1024                 # polling ablation
//	pa-hotpath ... -transport shm,local                    # transport ablation
//	pa-hotpath ... -label after -baseline old.json -out f  # write trajectory
//	pa-hotpath -n 1000000 -ranks 4 -hub-prefix 0 -out results/BENCH_hubcache.json
//	pa-hotpath -n 1000000 -ranks 4 -resolve -out results/BENCH_recompute.json
//
// -hub-prefix switches to the hub-cache traffic census: for every rank
// count it measures cross-rank data messages and bytes per edge with
// the cache off, then at each listed setting (0 = auto-sized), and
// reports the reduction.
//
// -transport sweeps the in-process transports (shm hands message
// batches between co-located ranks by reference; local round-trips
// them through the wire codec), and every row records the transport
// and GOMAXPROCS it ran with.
//
// -resolve switches to the resolve-mode census: for every rank count it
// measures traffic per edge under the wire protocol, the hub-prefix
// cache, and communication-free recomputation (-resolve=recompute on
// pagen/pa-tcp), plus the replay-depth quantiles of the recompute runs.
//
// -stream-dir DIR switches to the external-memory benchmark: one run
// at the first -ranks setting spilling its edges to shard
// files (docs/SHARD_FORMAT.md), recording throughput, sink counters
// and the process peak RSS alongside the in-memory estimate the sink
// avoids. It maintains results/BENCH_stream.json:
//
//	pa-hotpath -n 100000000 -x 1 -ranks 1 -stream-dir /tmp/shards \
//	    -out results/BENCH_stream.json
//
// -ckpt-every DLIST switches to the checkpoint-stall sweep: for each
// cadence one streamed+checkpointed run at the first -ranks setting
// records the per-epoch generation pause and background publish
// time (the low-stall checkpointing trajectory), -ckpt-full-every adds
// base+delta rows at that full-snapshot cadence, and -ckpt-kill-sends
// adds kill/resume legs verifying the resumed shard output is identical
// to an uninterrupted run. It maintains results/BENCH_ckpt.json:
//
//	pa-hotpath -n 1000000 -ranks 4 -ckpt-every 50000,100000 \
//	    -ckpt-dir /tmp/ckbench -ckpt-full-every 4 -ckpt-kill-sends 40,400 \
//	    -baseline old.json -out results/BENCH_ckpt.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pagen/internal/bench"
	"pagen/internal/cliutil"
)

func main() {
	var (
		n           = flag.Int64("n", 1_000_000, "nodes")
		x           = flag.Int("x", 4, "edges per node")
		ps          = flag.String("ranks", "4,8", "comma-separated rank counts")
		transports  = flag.String("transport", "shm", "comma-separated in-process transports to sweep: shm, local")
		pe          = flag.String("pollevery", "", "comma-separated polling intervals to sweep (0 = adaptive; empty = engine default)")
		seed        = flag.Uint64("seed", 1, "random seed")
		label       = flag.String("label", "current", "label recorded in the report")
		baseline    = flag.String("baseline", "", "prior trajectory JSON whose current block becomes this file's baseline")
		out         = flag.String("out", "", "write trajectory JSON here (TSV to stdout otherwise)")
		fp          = flag.Bool("fingerprint", false, "print output-graph fingerprints instead of measuring")
		hubs        = flag.String("hub-prefix", "", "comma-separated hub-prefix settings (0 = auto); measures cache traffic against the cache-off baseline instead of the hot path")
		resolve     = flag.Bool("resolve", false, "sweep resolve modes (wire, hub cache, recompute) and report traffic per edge instead of the hot path")
		rcDepth     = flag.Int("recompute-depth", 0, "recompute replay chain depth cap for the -resolve sweep (0 = ~2*log2(n))")
		streamDir   = flag.String("stream-dir", "", "benchmark one streamed run spilling shards to this directory (records throughput, sink counters and peak RSS)")
		streamBlock = flag.Int("stream-block-edges", 0, "edge records per stream block for the -stream-dir benchmark (0 = 65536)")
		ckptEvery   = flag.String("ckpt-every", "", "comma-separated checkpoint cadences to sweep; measures per-epoch pause/publish instead of the hot path (needs -ckpt-dir)")
		ckptDir     = flag.String("ckpt-dir", "", "scratch directory for the -ckpt-every sweep's checkpoints and shards")
		ckptFull    = flag.Int("ckpt-full-every", 0, "adds base+delta rows at this full-snapshot cadence to the -ckpt-every sweep (0 = full-only rows)")
		ckptKills   = flag.String("ckpt-kill-sends", "", "comma-separated chaos kill budgets for the -ckpt-every resume-identity legs (empty = skip)")
	)
	flag.Parse()

	rankList, err := cliutil.ParseInts(*ps)
	if err != nil {
		fatal(err)
	}
	var pollList []int
	if *pe != "" {
		pollList, err = cliutil.ParseIntsMin(*pe, 0)
		if err != nil {
			fatal(err)
		}
	}
	var transportList []string
	for _, t := range strings.Split(*transports, ",") {
		t = strings.TrimSpace(t)
		switch t {
		case "shm", "local":
			transportList = append(transportList, t)
		case "":
		default:
			fatal(fmt.Errorf("-transport %q: want shm or local", t))
		}
	}

	if *fp {
		for _, p := range rankList {
			h, err := bench.Fingerprint(*n, *x, p, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("n=%d x=%d ranks=%d seed=%d fingerprint=%016x\n", *n, *x, p, *seed, h)
		}
		return
	}

	if *ckptEvery != "" {
		everyList, err := cliutil.ParseInts(*ckptEvery)
		if err != nil {
			fatal(err)
		}
		var killList []int
		if *ckptKills != "" {
			if killList, err = cliutil.ParseInts(*ckptKills); err != nil {
				fatal(err)
			}
		}
		if *ckptDir == "" {
			fatal(fmt.Errorf("-ckpt-every needs -ckpt-dir (scratch space for checkpoints and shards)"))
		}
		ranks := 1
		if len(rankList) > 0 {
			ranks = rankList[0]
		}
		cfg := bench.CkptConfig{
			N: *n, X: *x, Ranks: ranks, Seed: *seed,
			FullEvery: *ckptFull, Dir: *ckptDir,
		}
		for _, e := range everyList {
			cfg.Every = append(cfg.Every, int64(e))
		}
		for _, k := range killList {
			cfg.KillSends = append(cfg.KillSends, int64(k))
		}
		rep, err := bench.CkptSweep(cfg)
		if err != nil {
			fatal(err)
		}
		rep.Label = *label
		var base *bench.CkptReport
		if *baseline != "" {
			if base, err = bench.ReadCkptJSON(*baseline); err != nil {
				fatal(err)
			}
			rep.Baseline = base.Rows
			rep.BaselineLabel = base.Label
		}
		if *out == "" {
			if err := bench.WriteCkpt(os.Stdout, rep); err != nil {
				fatal(err)
			}
			return
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteCkptJSON(f, base, rep); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if err := bench.WriteCkpt(os.Stderr, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
		return
	}

	if *streamDir != "" {
		ranks := 1
		if len(rankList) > 0 {
			ranks = rankList[0]
		}
		rep, err := bench.StreamBench(bench.StreamConfig{
			N: *n, X: *x, Ranks: ranks, Seed: *seed,
			Dir: *streamDir, BlockEdges: *streamBlock,
		})
		if err != nil {
			fatal(err)
		}
		rep.Label = *label
		if *out == "" {
			if err := bench.WriteStream(os.Stdout, rep); err != nil {
				fatal(err)
			}
			return
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteStreamJSON(f, rep); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if err := bench.WriteStream(os.Stderr, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
		return
	}

	if *resolve {
		rep, err := bench.RecomputeSweep(bench.RecomputeConfig{
			N: *n, X: *x, Ranks: rankList,
			Seed: *seed, Depth: *rcDepth,
		})
		if err != nil {
			fatal(err)
		}
		rep.Label = *label
		if *out == "" {
			if err := bench.WriteRecompute(os.Stdout, rep); err != nil {
				fatal(err)
			}
			return
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteRecomputeJSON(f, rep); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
		return
	}

	if *hubs != "" {
		hubList, err := cliutil.ParseIntsMin(*hubs, 0)
		if err != nil {
			fatal(err)
		}
		settings := make([]int64, len(hubList))
		for i, h := range hubList {
			settings[i] = int64(h)
		}
		rep, err := bench.HubCacheSweep(bench.HubCacheConfig{
			N: *n, X: *x, Ranks: rankList,
			Seed: *seed, HubPrefixes: settings,
		})
		if err != nil {
			fatal(err)
		}
		rep.Label = *label
		if *out == "" {
			if err := bench.WriteHubCache(os.Stdout, rep); err != nil {
				fatal(err)
			}
			return
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteHubCacheJSON(f, rep); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
		return
	}

	rep, err := bench.HotPathSweep(bench.HotPathConfig{
		N: *n, X: *x, Ranks: rankList,
		PollEvery: pollList, Transports: transportList, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	rep.Label = *label

	if *out == "" {
		fmt.Printf("# hot path (n=%d, x=%d, RRP)\n", *n, *x)
		if err := bench.WriteHotPath(os.Stdout, rep); err != nil {
			fatal(err)
		}
		return
	}

	var base *bench.HotPathReport
	if *baseline != "" {
		b, err := bench.ReadHotPathJSON(*baseline)
		if err != nil {
			fatal(err)
		}
		base = b
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := bench.WriteHotPathJSON(f, base, rep); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pa-hotpath:", err)
	os.Exit(1)
}
