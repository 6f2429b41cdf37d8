package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pagen/internal/core"
	"pagen/internal/model"
	"pagen/internal/partition"
)

// StreamConfig describes one streamed-run benchmark: a single
// generation with Options.StreamDir set, measured for throughput and
// peak resident memory rather than hot-path constant factors.
type StreamConfig struct {
	N          int64
	X          int
	P          float64 // 0 means 0.5
	Ranks      int
	Seed       uint64
	Dir        string // shard directory (must exist or be creatable)
	BlockEdges int    // records per flushed block; 0 = esink default
}

// StreamReport is the record written to BENCH_stream.json: the evidence
// that the external-memory sink keeps resident memory bounded at paper
// scale. PeakRSSBytes is the process VmHWM, so the run should be the
// dominant allocation in the process (pa-hotpath -stream-dir arranges
// that). InMemoryEstBytes is what the same run would need with the
// materialised edge list, per pagen.MemoryEstimate's formula.
type StreamReport struct {
	Label     string  `json:"label"`
	GoVersion string  `json:"go_version"`
	N         int64   `json:"n"`
	X         int     `json:"x"`
	P         float64 `json:"p"`
	Scheme    string  `json:"scheme"`
	Seed      uint64  `json:"seed"`
	Ranks     int     `json:"ranks"`

	Edges       int64   `json:"edges"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	EdgesPerSec float64 `json:"edges_per_sec"`

	SinkBlocks       int64   `json:"sink_blocks_flushed"`
	SinkBytes        int64   `json:"sink_bytes_written"`
	SinkFsyncs       int64   `json:"sink_fsyncs"`
	BytesPerEdge     float64 `json:"sink_bytes_per_edge"`
	BlockEdges       int     `json:"stream_block_edges"`
	PeakRSSBytes     int64   `json:"peak_rss_bytes,omitempty"`
	InMemoryEstBytes int64   `json:"in_memory_est_bytes"`
}

// StreamBench runs one streamed generation and reports throughput, sink
// counters and the process peak RSS.
func StreamBench(cfg StreamConfig) (StreamReport, error) {
	p := cfg.P
	if p == 0 {
		p = 0.5
	}
	rep := StreamReport{
		GoVersion: runtime.Version(),
		N:         cfg.N, X: cfg.X, P: p,
		Scheme: "RRP", Seed: cfg.Seed,
		Ranks:      cfg.Ranks,
		BlockEdges: cfg.BlockEdges,
	}
	pr := model.Params{N: cfg.N, X: cfg.X, P: p}
	if err := pr.Validate(); err != nil {
		return rep, err
	}
	if cfg.Dir == "" {
		return rep, fmt.Errorf("bench: stream benchmark needs a shard directory")
	}
	part, err := partition.New(partition.KindRRP, cfg.N, cfg.Ranks)
	if err != nil {
		return rep, err
	}
	start := time.Now()
	res, err := core.Run(core.Options{
		Params: pr, Part: part, Seed: cfg.Seed,
		StreamDir: cfg.Dir, StreamBlockEdges: cfg.BlockEdges,
	}, false)
	elapsed := time.Since(start)
	if err != nil {
		return rep, err
	}
	for _, st := range res.Ranks {
		rep.Edges += st.Edges
		rep.SinkBlocks += st.SinkBlocks
		rep.SinkBytes += st.SinkBytes
		rep.SinkFsyncs += st.SinkFsyncs
	}
	rep.ElapsedMS = float64(elapsed.Nanoseconds()) / 1e6
	if elapsed > 0 {
		rep.EdgesPerSec = float64(rep.Edges) / elapsed.Seconds()
	}
	if rep.Edges > 0 {
		rep.BytesPerEdge = float64(rep.SinkBytes) / float64(rep.Edges)
	}
	rep.PeakRSSBytes = PeakRSS()
	rep.InMemoryEstBytes = inMemoryEstimate(pr, cfg.Ranks)
	return rep, nil
}

// inMemoryEstimate mirrors pagen.MemoryEstimate for a non-streamed run:
// the F tables plus the materialised edge list the sink exists to avoid.
func inMemoryEstimate(pr model.Params, ranks int) int64 {
	slots := (pr.N - int64(pr.X)) * int64(pr.X)
	est := slots * 8
	est += pr.M() * 16
	est += pr.M() * 16 / 4
	if ranks < 1 {
		ranks = 1
	}
	est += int64(ranks) * 1 << 16
	return est
}

// PeakRSS returns the process resident-set high-water mark in bytes
// (VmHWM from /proc/self/status), or 0 where the proc file is
// unavailable (non-Linux).
func PeakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// WriteStreamJSON writes the streamed-run benchmark record.
func WriteStreamJSON(w io.Writer, rep StreamReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteStream prints the streamed-run benchmark as a human summary.
func WriteStream(w io.Writer, rep StreamReport) error {
	_, err := fmt.Fprintf(w,
		"stream bench: n=%d x=%d ranks=%d seed=%d\n"+
			"  edges         %d\n"+
			"  elapsed       %.1f ms (%.3g edges/s)\n"+
			"  shard bytes   %d (%.2f B/edge, %d blocks, %d fsyncs)\n"+
			"  peak RSS      %d bytes\n"+
			"  in-mem est    %d bytes\n",
		rep.N, rep.X, rep.Ranks, rep.Seed,
		rep.Edges, rep.ElapsedMS, rep.EdgesPerSec,
		rep.SinkBytes, rep.BytesPerEdge, rep.SinkBlocks, rep.SinkFsyncs,
		rep.PeakRSSBytes, rep.InMemoryEstBytes)
	return err
}
