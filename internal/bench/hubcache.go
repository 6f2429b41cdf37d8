package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"pagen/internal/core"
	"pagen/internal/model"
	"pagen/internal/partition"
)

// HubCachePoint is one measured configuration of the hub-cache
// experiment: the cross-rank traffic of a run at a fixed hub-prefix
// setting. DataMsgs counts request + resolved messages — the round-trip
// traffic the cache exists to elide; publishes (the replication
// overhead the cache pays instead) are reported separately, and the
// byte counters include them, so BytesPerEdge is an honest total.
type HubCachePoint struct {
	Ranks     int   `json:"ranks"`
	HubPrefix int64 `json:"hub_prefix"` // -1 = cache off, 0 = auto-sized
	Edges     int64 `json:"edges"`
	DataMsgs  int64 `json:"data_msgs"`
	Publishes int64 `json:"publishes,omitempty"`
	HubHits   int64 `json:"hub_hits,omitempty"`
	Coalesced int64 `json:"req_coalesced,omitempty"`
	BytesSent int64 `json:"bytes_sent"`

	MsgsPerEdge  float64 `json:"msgs_per_edge"`
	BytesPerEdge float64 `json:"bytes_per_edge"`
}

// HubCacheReduction compares a cache-on point against the cache-off
// baseline at the same rank count.
type HubCacheReduction struct {
	Ranks            int     `json:"ranks"`
	HubPrefix        int64   `json:"hub_prefix"`
	MsgsPerEdgeOff   float64 `json:"msgs_per_edge_off"`
	MsgsPerEdgeOn    float64 `json:"msgs_per_edge_on"`
	MsgsReductionPct float64 `json:"msgs_reduction_pct"`
	BytesPerEdgeOff  float64 `json:"bytes_per_edge_off"`
	BytesPerEdgeOn   float64 `json:"bytes_per_edge_on"`
	// BytesReductionPct is negative when the publish traffic outweighs
	// the elided round trips (small runs replicate proportionally more).
	BytesReductionPct float64 `json:"bytes_reduction_pct"`
}

// HubCacheReport is the trajectory record written to
// BENCH_hubcache.json: before/after traffic of the hub-prefix cache.
type HubCacheReport struct {
	Label      string              `json:"label"`
	GoVersion  string              `json:"go_version"`
	N          int64               `json:"n"`
	X          int                 `json:"x"`
	P          float64             `json:"p"`
	Scheme     string              `json:"scheme"`
	Seed       uint64              `json:"seed"`
	Points     []HubCachePoint     `json:"points"`
	Reductions []HubCacheReduction `json:"reductions"`
}

// HubCacheConfig describes a hub-cache sweep: for each rank count, one
// cache-off baseline run plus one run per entry of HubPrefixes.
type HubCacheConfig struct {
	N           int64
	X           int
	P           float64 // 0 means 0.5
	Ranks       []int
	Seed        uint64
	HubPrefixes []int64 // cache-on settings; 0 = auto-sized
}

// HubCacheSweep runs the hub-cache before/after experiment. Message and
// byte counts are deterministic for a fixed configuration, so a single
// run per point suffices (this is a traffic census, not a timing
// benchmark).
func HubCacheSweep(cfg HubCacheConfig) (HubCacheReport, error) {
	p := cfg.P
	if p == 0 {
		p = 0.5
	}
	rep := HubCacheReport{
		GoVersion: runtime.Version(),
		N:         cfg.N, X: cfg.X, P: p,
		Scheme: "RRP", Seed: cfg.Seed,
	}
	pr := model.Params{N: cfg.N, X: cfg.X, P: p}
	if err := pr.Validate(); err != nil {
		return rep, err
	}
	hubs := cfg.HubPrefixes
	if len(hubs) == 0 {
		hubs = []int64{0}
	}
	for _, ranks := range cfg.Ranks {
		part, err := partition.New(partition.KindRRP, cfg.N, ranks)
		if err != nil {
			return rep, err
		}
		off, err := hubCachePoint(pr, part, cfg.Seed, -1)
		if err != nil {
			return rep, err
		}
		rep.Points = append(rep.Points, off)
		for _, hp := range hubs {
			if hp < 0 {
				continue // the off baseline is always measured
			}
			on, err := hubCachePoint(pr, part, cfg.Seed, hp)
			if err != nil {
				return rep, err
			}
			rep.Points = append(rep.Points, on)
			red := HubCacheReduction{
				Ranks:           ranks,
				HubPrefix:       hp,
				MsgsPerEdgeOff:  off.MsgsPerEdge,
				MsgsPerEdgeOn:   on.MsgsPerEdge,
				BytesPerEdgeOff: off.BytesPerEdge,
				BytesPerEdgeOn:  on.BytesPerEdge,
			}
			if off.MsgsPerEdge > 0 {
				red.MsgsReductionPct = 100 * (1 - on.MsgsPerEdge/off.MsgsPerEdge)
			}
			if off.BytesPerEdge > 0 {
				red.BytesReductionPct = 100 * (1 - on.BytesPerEdge/off.BytesPerEdge)
			}
			rep.Reductions = append(rep.Reductions, red)
		}
	}
	return rep, nil
}

func hubCachePoint(pr model.Params, part partition.Scheme, seed uint64, hub int64) (HubCachePoint, error) {
	res, err := core.Run(core.Options{
		Params: pr, Part: part, Seed: seed,
		HubPrefix: hub,
	}, false)
	if err != nil {
		return HubCachePoint{}, err
	}
	pt := HubCachePoint{Ranks: part.P(), HubPrefix: hub}
	for _, st := range res.Ranks {
		pt.Edges += st.Edges
		pt.DataMsgs += st.Comm.RequestsSent + st.Comm.ResolvedSent
		pt.Publishes += st.Comm.PublishSent
		pt.HubHits += st.HubCacheHits
		pt.Coalesced += st.ReqCoalesced
		pt.BytesSent += st.Comm.BytesSent
	}
	if pt.Edges > 0 {
		pt.MsgsPerEdge = float64(pt.DataMsgs) / float64(pt.Edges)
		pt.BytesPerEdge = float64(pt.BytesSent) / float64(pt.Edges)
	}
	return pt, nil
}

// WriteHubCacheJSON writes the hub-cache trajectory file.
func WriteHubCacheJSON(w io.Writer, rep HubCacheReport) error {
	doc := struct {
		Experiment string          `json:"experiment"`
		Current    *HubCacheReport `json:"current"`
	}{Experiment: "hubcache", Current: &rep}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteHubCache prints a hub-cache report as a TSV table followed by
// the off-versus-on reductions.
func WriteHubCache(w io.Writer, rep HubCacheReport) error {
	if _, err := fmt.Fprintln(w, "ranks\thub_prefix\tedges\tdata_msgs\tpublishes\thub_hits\tcoalesced\tmsgs_per_edge\tbytes_per_edge"); err != nil {
		return err
	}
	for _, pt := range rep.Points {
		if _, err := fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%.2f\n",
			pt.Ranks, pt.HubPrefix, pt.Edges, pt.DataMsgs, pt.Publishes,
			pt.HubHits, pt.Coalesced, pt.MsgsPerEdge, pt.BytesPerEdge); err != nil {
			return err
		}
	}
	for _, red := range rep.Reductions {
		if _, err := fmt.Fprintf(w, "# ranks=%d hub=%d: data msgs/edge %.4f -> %.4f (%.1f%% fewer), B/edge %.2f -> %.2f (%.1f%%)\n",
			red.Ranks, red.HubPrefix, red.MsgsPerEdgeOff, red.MsgsPerEdgeOn, red.MsgsReductionPct,
			red.BytesPerEdgeOff, red.BytesPerEdgeOn, red.BytesReductionPct); err != nil {
			return err
		}
	}
	return nil
}
