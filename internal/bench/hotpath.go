package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"time"

	"pagen/internal/core"
	"pagen/internal/model"
	"pagen/internal/partition"
)

// HotPathPoint is one measured configuration of the hot-path experiment:
// constant-factor metrics of the generation loop and the message path
// (allocations per edge, bytes per frame) rather than the figure-level
// results of the paper experiments.
type HotPathPoint struct {
	Ranks         int     `json:"ranks"`
	PollEvery     int     `json:"poll_every,omitempty"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Transport     string  `json:"transport"`
	N             int64   `json:"n"`
	X             int     `json:"x"`
	Edges         int64   `json:"edges"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	NsPerEdge     float64 `json:"ns_per_edge"`
	AllocsPerEdge float64 `json:"allocs_per_edge"`
	BytesPerFrame float64 `json:"bytes_per_frame"`
	MsgsPerFrame  float64 `json:"msgs_per_frame"`
	BytesPerMsg   float64 `json:"bytes_per_msg"`
	FramesSent    int64   `json:"frames_sent"`
	BytesSent     int64   `json:"bytes_sent"`
}

// HotPathReport is the hot-path trajectory record written to
// BENCH_hotpath.json so later optimisation PRs can compare against it.
type HotPathReport struct {
	Label      string         `json:"label"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Points     []HotPathPoint `json:"points"`
}

// HotPathConfig describes a hot-path sweep: the cross product of rank
// and poll-interval settings at fixed n and x. Empty PollEvery means
// {core default} (recorded as 0 in the point only when a non-default
// interval was swept).
type HotPathConfig struct {
	N         int64
	X         int
	Ranks     []int
	PollEvery []int
	// Transports lists the in-process transports to sweep ("shm",
	// "local"); empty means {"shm"}, the engine default.
	Transports []string
	Seed       uint64
}

// HotPath measures the generation hot path at n nodes, x attachments per
// node, for each rank count in ranks. It is the single-axis wrapper around HotPathSweep kept for existing callers.
func HotPath(n int64, x int, ranks []int, seed uint64) (HotPathReport, error) {
	return HotPathSweep(HotPathConfig{N: n, X: x, Ranks: ranks, Seed: seed})
}

// HotPathSweep measures the generation hot path over the cross product
// of cfg.Ranks × cfg.PollEvery × cfg.Transports. Allocations are
// measured process wide (runtime mallocs delta across the run), so the
// numbers include every layer: engine, communicator, codec and
// transport.
func HotPathSweep(cfg HotPathConfig) (HotPathReport, error) {
	rep := HotPathReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	pr := model.Params{N: cfg.N, X: cfg.X, P: 0.5}
	if err := pr.Validate(); err != nil {
		return rep, err
	}
	polls := cfg.PollEvery
	if len(polls) == 0 {
		polls = []int{core.DefaultPollEvery}
	}
	transports := cfg.Transports
	if len(transports) == 0 {
		transports = []string{"shm"}
	}
	for _, p := range cfg.Ranks {
		part, err := partition.New(partition.KindRRP, cfg.N, p)
		if err != nil {
			return rep, err
		}
		for _, pe := range polls {
			for _, tr := range transports {
				opts := core.Options{
					Params: pr, Part: part, Seed: cfg.Seed,
					PollEvery: pe, Transport: tr,
				}
				pt, err := measureHotPath(opts)
				if err != nil {
					return rep, err
				}
				pt.Ranks = p
				pt.N, pt.X = cfg.N, cfg.X
				pt.Transport = tr
				if pe != core.DefaultPollEvery {
					pt.PollEvery = pe
				}
				rep.Points = append(rep.Points, pt)
			}
		}
	}
	return rep, nil
}

// measureHotPath runs one warmed, GC-bracketed measurement of opts and
// fills the measurement-derived fields of a HotPathPoint.
func measureHotPath(opts core.Options) (HotPathPoint, error) {
	// Warm run so pools and lazily-grown structures reach steady state
	// before the measured run.
	if _, err := core.Run(opts, false); err != nil {
		return HotPathPoint{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := core.Run(opts, false)
	if err != nil {
		return HotPathPoint{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	var frames, bytes, msgs, edges int64
	for _, st := range res.Ranks {
		frames += st.Comm.FramesSent
		bytes += st.Comm.BytesSent
		msgs += st.Comm.MessagesSent()
		edges += st.Edges
	}
	pt := HotPathPoint{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Edges:         edges,
		ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
		NsPerEdge:     float64(elapsed.Nanoseconds()) / float64(edges),
		AllocsPerEdge: float64(after.Mallocs-before.Mallocs) / float64(edges),
		FramesSent:    frames,
		BytesSent:     bytes,
	}
	if frames > 0 {
		pt.BytesPerFrame = float64(bytes) / float64(frames)
		pt.MsgsPerFrame = float64(msgs) / float64(frames)
	}
	if msgs > 0 {
		pt.BytesPerMsg = float64(bytes) / float64(msgs)
	}
	return pt, nil
}

// WriteHotPathJSON writes a hot-path trajectory file: the current report
// plus, when non-nil, the baseline it is compared against.
func WriteHotPathJSON(w io.Writer, baseline *HotPathReport, current HotPathReport) error {
	doc := struct {
		Experiment string         `json:"experiment"`
		Baseline   *HotPathReport `json:"baseline,omitempty"`
		Current    *HotPathReport `json:"current"`
	}{Experiment: "hotpath", Baseline: baseline, Current: &current}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadHotPathJSON reads a trajectory file written by WriteHotPathJSON and
// returns its current block — the report a newer run uses as baseline.
func ReadHotPathJSON(path string) (*HotPathReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Current *HotPathReport `json:"current"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if doc.Current == nil {
		return nil, fmt.Errorf("bench: %s: no current block", path)
	}
	return doc.Current, nil
}

// WriteHotPath prints a hot-path report as a TSV table.
func WriteHotPath(w io.Writer, rep HotPathReport) error {
	if _, err := fmt.Fprintln(w, "ranks\ttransport\tn\tx\twall_ms\tns_per_edge\tallocs_per_edge\tbytes_per_frame\tmsgs_per_frame\tbytes_per_msg"); err != nil {
		return err
	}
	for _, pt := range rep.Points {
		tr := pt.Transport
		if tr == "" {
			tr = "local" // reports written before the shm transport existed
		}
		if _, err := fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%.1f\t%.1f\t%.4f\t%.1f\t%.1f\t%.2f\n",
			pt.Ranks, tr, pt.N, pt.X, pt.ElapsedMS, pt.NsPerEdge, pt.AllocsPerEdge,
			pt.BytesPerFrame, pt.MsgsPerFrame, pt.BytesPerMsg); err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint hashes the output graph of an RRP run — the exactness
// regression check behind "single-rank output is byte-identical across
// hot-path optimisations". For ranks == 1 the hash is order-sensitive
// (FNV-1a over the edge stream, which single-rank runs emit in node
// order); for ranks > 1 it is an order-insensitive XOR of per-edge
// hashes, since multi-rank merge order is set by rank, not by time.
func Fingerprint(n int64, x int, ranks int, seed uint64) (uint64, error) {
	pr := model.Params{N: n, X: x, P: 0.5}
	if err := pr.Validate(); err != nil {
		return 0, err
	}
	part, err := partition.New(partition.KindRRP, n, ranks)
	if err != nil {
		return 0, err
	}
	res, err := core.Run(core.Options{Params: pr, Part: part, Seed: seed}, false)
	if err != nil {
		return 0, err
	}
	if ranks == 1 {
		h := fnv.New64a()
		var buf [16]byte
		for _, e := range res.Graph.Edges {
			putEdge(&buf, e.U, e.V)
			h.Write(buf[:])
		}
		return h.Sum64(), nil
	}
	var acc uint64
	var buf [16]byte
	for _, e := range res.Graph.Edges {
		h := fnv.New64a()
		putEdge(&buf, e.U, e.V)
		h.Write(buf[:])
		acc ^= h.Sum64()
	}
	return acc, nil
}

func putEdge(buf *[16]byte, u, v int64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(u >> (8 * i))
		buf[8+i] = byte(v >> (8 * i))
	}
}
