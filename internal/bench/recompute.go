package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"pagen/internal/core"
	"pagen/internal/model"
	"pagen/internal/partition"
)

// RecomputePoint is one measured configuration of the resolve-mode
// experiment: the cross-rank traffic and wall time of a run at a fixed
// (resolve mode, hub setting) pair. DataMsgs counts request + resolved
// messages — the round trips recompute mode exists to eliminate;
// publishes stay in the byte totals so BytesPerEdge is honest.
type RecomputePoint struct {
	Ranks     int    `json:"ranks"`
	Mode      string `json:"mode"` // "wire", "hub", "recompute"
	HubPrefix int64  `json:"hub_prefix"`
	Edges     int64  `json:"edges"`
	DataMsgs  int64  `json:"data_msgs"`
	Publishes int64  `json:"publishes,omitempty"`
	BytesSent int64  `json:"bytes_sent"`

	RecomputeResolved int64 `json:"recompute_resolved,omitempty"`
	RecomputeFallback int64 `json:"recompute_fallback,omitempty"`
	ReplayedEdges     int64 `json:"replayed_edges,omitempty"`
	// Replay-depth quantiles (nodes replayed per resolved chain) — the
	// empirical counterpart of the Theorem 3.3 O(log n) chain bound.
	ReplayDepthP50 int64 `json:"replay_depth_p50,omitempty"`
	ReplayDepthP99 int64 `json:"replay_depth_p99,omitempty"`
	ReplayDepthMax int64 `json:"replay_depth_max,omitempty"`

	MsgsPerEdge  float64 `json:"msgs_per_edge"`
	BytesPerEdge float64 `json:"bytes_per_edge"`
	NsPerEdge    float64 `json:"ns_per_edge"`
}

// RecomputeReport is the trajectory record written to
// BENCH_recompute.json: recompute mode versus the wire baseline and the
// hub-prefix cache at each rank count.
type RecomputeReport struct {
	Label     string           `json:"label"`
	GoVersion string           `json:"go_version"`
	N         int64            `json:"n"`
	X         int              `json:"x"`
	P         float64          `json:"p"`
	Scheme    string           `json:"scheme"`
	Seed      uint64           `json:"seed"`
	DepthCap  int              `json:"depth_cap"` // effective recompute depth cap
	Points    []RecomputePoint `json:"points"`
}

// RecomputeConfig describes a resolve-mode sweep: for each rank count,
// a wire baseline (hub off), a hub-cache run (auto H), and a recompute
// run (hub off — replay replaces both the round trips and the replica).
type RecomputeConfig struct {
	N     int64
	X     int
	P     float64 // 0 means 0.5
	Ranks []int
	Seed  uint64
	Depth int // recompute depth cap; 0 = auto
}

// RecomputeSweep runs the resolve-mode experiment. Message and byte
// counts are deterministic for a fixed configuration; ns/edge is a
// single-run timing indication, not a statistical benchmark.
func RecomputeSweep(cfg RecomputeConfig) (RecomputeReport, error) {
	p := cfg.P
	if p == 0 {
		p = 0.5
	}
	rep := RecomputeReport{
		GoVersion: runtime.Version(),
		N:         cfg.N, X: cfg.X, P: p,
		Scheme: "RRP", Seed: cfg.Seed,
		DepthCap: cfg.Depth,
	}
	if rep.DepthCap == 0 {
		rep.DepthCap = core.DefaultRecomputeDepth(cfg.N)
	}
	pr := model.Params{N: cfg.N, X: cfg.X, P: p}
	if err := pr.Validate(); err != nil {
		return rep, err
	}
	for _, ranks := range cfg.Ranks {
		part, err := partition.New(partition.KindRRP, cfg.N, ranks)
		if err != nil {
			return rep, err
		}
		runs := []struct {
			mode core.ResolveMode
			hub  int64
			name string
		}{
			{core.ResolveWire, -1, "wire"},
			{core.ResolveWire, 0, "hub"},
			{core.ResolveRecompute, -1, "recompute"},
		}
		for _, r := range runs {
			pt, err := recomputePoint(pr, part, cfg.Seed, r.hub, r.mode, cfg.Depth)
			if err != nil {
				return rep, err
			}
			pt.Mode = r.name
			rep.Points = append(rep.Points, pt)
		}
	}
	return rep, nil
}

func recomputePoint(pr model.Params, part partition.Scheme, seed uint64,
	hub int64, mode core.ResolveMode, depth int) (RecomputePoint, error) {
	start := time.Now()
	res, err := core.Run(core.Options{
		Params: pr, Part: part, Seed: seed,
		HubPrefix: hub,
		Resolve:   mode, RecomputeDepth: depth,
	}, false)
	if err != nil {
		return RecomputePoint{}, err
	}
	elapsed := time.Since(start)
	pt := RecomputePoint{Ranks: part.P(), HubPrefix: hub}
	depthHist := res.Ranks[0].ReplayDepth
	for i, st := range res.Ranks {
		pt.Edges += st.Edges
		pt.DataMsgs += st.Comm.RequestsSent + st.Comm.ResolvedSent
		pt.Publishes += st.Comm.PublishSent
		pt.BytesSent += st.Comm.BytesSent
		pt.RecomputeResolved += st.RecomputeResolved
		pt.RecomputeFallback += st.RecomputeFallback
		pt.ReplayedEdges += st.ReplayedEdges
		if i > 0 {
			depthHist.Merge(st.ReplayDepth)
		}
	}
	if depthHist.Count > 0 {
		pt.ReplayDepthP50 = depthHist.Quantile(0.5)
		pt.ReplayDepthP99 = depthHist.Quantile(0.99)
		pt.ReplayDepthMax = depthHist.Max
	}
	if pt.Edges > 0 {
		pt.MsgsPerEdge = float64(pt.DataMsgs) / float64(pt.Edges)
		pt.BytesPerEdge = float64(pt.BytesSent) / float64(pt.Edges)
		pt.NsPerEdge = float64(elapsed.Nanoseconds()) / float64(pt.Edges)
	}
	return pt, nil
}

// WriteRecomputeJSON writes the resolve-mode trajectory file.
func WriteRecomputeJSON(w io.Writer, rep RecomputeReport) error {
	doc := struct {
		Experiment string           `json:"experiment"`
		Current    *RecomputeReport `json:"current"`
	}{Experiment: "recompute", Current: &rep}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteRecompute prints a resolve-mode report as a TSV table.
func WriteRecompute(w io.Writer, rep RecomputeReport) error {
	if _, err := fmt.Fprintln(w, "ranks\tmode\tedges\tdata_msgs\tpublishes\treplayed\tfallbacks\tdepth_p50\tdepth_p99\tmsgs_per_edge\tbytes_per_edge\tns_per_edge"); err != nil {
		return err
	}
	for _, pt := range rep.Points {
		if _, err := fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%.2f\t%.1f\n",
			pt.Ranks, pt.Mode, pt.Edges, pt.DataMsgs, pt.Publishes,
			pt.RecomputeResolved, pt.RecomputeFallback,
			pt.ReplayDepthP50, pt.ReplayDepthP99,
			pt.MsgsPerEdge, pt.BytesPerEdge, pt.NsPerEdge); err != nil {
			return err
		}
	}
	return nil
}
