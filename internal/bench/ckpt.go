package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pagen/internal/core"
	"pagen/internal/esink"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// CkptConfig describes the checkpoint-stall sweep: for each cadence in
// Every, one streamed+checkpointed run at fixed n/x/ranks,
// recording the per-epoch generation pause and background publish time.
// FullEvery > 1 adds a second row per cadence running base+delta epochs
// at that full-snapshot cadence. KillSends adds the resume-identity
// legs: TCP clusters whose last rank is chaos-killed after that many
// sends, resumed, and compared edge-for-edge against an uninterrupted
// reference run.
type CkptConfig struct {
	N     int64
	X     int
	P     float64 // 0 means 0.5
	Ranks int
	Seed  uint64
	Every []int64
	// FullEvery is the -checkpoint-full-every setting of the base+delta
	// rows (0 or 1 skips them).
	FullEvery int
	// Dir is the scratch root; each row gets its own ck/shards subtree.
	Dir string
	// KillSends are chaos kill budgets (transport Send calls on the
	// last rank before it dies) for the resume-identity legs; empty
	// skips them.
	KillSends []int64
	// BasePort is the first TCP port the kill legs listen on (default
	// 45200; each leg uses a fresh disjoint span).
	BasePort int
}

// CkptRow is one measured cadence: the per-epoch pause/publish means
// the tentpole optimises, plus volume and wall time.
type CkptRow struct {
	Every     int64 `json:"checkpoint_every"`
	FullEvery int   `json:"checkpoint_full_every"` // 0 = every epoch full
	// Epochs is the committed epoch count summed over ranks; Abandoned
	// the epochs voted down cluster-wide after a publish failure.
	Epochs    int64 `json:"epochs"`
	Abandoned int64 `json:"abandoned"`
	// PauseNsPerEpoch is the mean generation pause per epoch — the
	// number the fast-capture rework drives down — and PauseMaxNs the
	// worst epoch. WriteNsPerEpoch is the mean background publish time
	// (overlapped with generation, not part of the pause).
	PauseNsPerEpoch int64 `json:"pause_ns_per_epoch"`
	PauseMaxNs      int64 `json:"pause_max_ns"`
	WriteNsPerEpoch int64 `json:"write_ns_per_epoch"`
	// BytesPerEpoch and TotalBytes measure snapshot volume (deltas
	// shrink them).
	BytesPerEpoch int64   `json:"bytes_per_epoch"`
	TotalBytes    int64   `json:"total_bytes"`
	ElapsedMS     float64 `json:"elapsed_ms"`
}

// CkptKillRow is one resume-identity leg: a cluster killed mid-run,
// resumed, and compared against the uninterrupted reference output.
type CkptKillRow struct {
	KillAfterSends int64 `json:"kill_after_sends"`
	FullEvery      int   `json:"checkpoint_full_every"`
	// Identical is the byte-identity verdict: the resumed run's edge
	// stream equals the uninterrupted reference's.
	Identical bool `json:"identical"`
	// Edges is the resumed run's edge count (equals the reference's m
	// when Identical).
	Edges int64 `json:"edges"`
}

// CkptReport is the record written to BENCH_ckpt.json. Baseline rows
// (if any) come from a prior report's Rows via ReadCkptJSON — the
// before/after trajectory the low-stall rework is measured by.
type CkptReport struct {
	Label     string  `json:"label"`
	GoVersion string  `json:"go_version"`
	N         int64   `json:"n"`
	X         int     `json:"x"`
	P         float64 `json:"p"`
	Scheme    string  `json:"scheme"`
	Seed      uint64  `json:"seed"`
	Ranks     int     `json:"ranks"`

	Baseline      []CkptRow     `json:"baseline,omitempty"`
	BaselineLabel string        `json:"baseline_label,omitempty"`
	Rows          []CkptRow     `json:"rows"`
	Kills         []CkptKillRow `json:"kills,omitempty"`
}

// CkptSweep measures every configured cadence (full-only, and
// base+delta when FullEvery > 1), then runs the kill/resume identity
// legs.
func CkptSweep(cfg CkptConfig) (CkptReport, error) {
	p := cfg.P
	if p == 0 {
		p = 0.5
	}
	rep := CkptReport{
		GoVersion: runtime.Version(),
		N:         cfg.N, X: cfg.X, P: p,
		Scheme: "RRP", Seed: cfg.Seed,
		Ranks: cfg.Ranks,
	}
	pr := model.Params{N: cfg.N, X: cfg.X, P: p}
	if err := pr.Validate(); err != nil {
		return rep, err
	}
	if cfg.Dir == "" {
		return rep, fmt.Errorf("bench: checkpoint sweep needs a scratch directory")
	}
	fulls := []int{0}
	if cfg.FullEvery > 1 {
		fulls = append(fulls, cfg.FullEvery)
	}
	for _, every := range cfg.Every {
		for _, fe := range fulls {
			row, err := ckptRow(cfg, pr, every, fe)
			if err != nil {
				return rep, err
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	if len(cfg.KillSends) > 0 {
		kills, err := ckptKillLegs(cfg, pr, fulls)
		if err != nil {
			return rep, err
		}
		rep.Kills = kills
	}
	return rep, nil
}

// ckptRow measures one cadence with one in-process streamed run.
func ckptRow(cfg CkptConfig, pr model.Params, every int64, fullEvery int) (CkptRow, error) {
	row := CkptRow{Every: every, FullEvery: fullEvery}
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("row-e%d-f%d", every, fullEvery))
	ckDir, shDir := filepath.Join(dir, "ck"), filepath.Join(dir, "shards")
	for _, d := range []string{ckDir, shDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return row, err
		}
	}
	part, err := partition.New(partition.KindRRP, cfg.N, cfg.Ranks)
	if err != nil {
		return row, err
	}
	start := time.Now()
	res, err := core.Run(core.Options{
		Params: pr, Part: part, Seed: cfg.Seed,
		Checkpoint: &core.CheckpointOptions{Dir: ckDir, Every: every, FullEvery: fullEvery},
		StreamDir:  shDir,
	}, false)
	elapsed := time.Since(start)
	if err != nil {
		return row, err
	}
	var pauseSum, pauseN, writeSum, writeN int64
	for _, st := range res.Ranks {
		row.Epochs += st.CkptEpochs
		row.Abandoned += st.CkptFailed
		row.TotalBytes += st.CkptBytes
		pauseSum += st.CkptPauseHist.Sum
		pauseN += st.CkptPauseHist.Count
		writeSum += st.CkptWriteHist.Sum
		writeN += st.CkptWriteHist.Count
		if st.CkptPauseHist.Max > row.PauseMaxNs {
			row.PauseMaxNs = st.CkptPauseHist.Max
		}
	}
	if pauseN > 0 {
		row.PauseNsPerEpoch = pauseSum / pauseN
	}
	if writeN > 0 {
		row.WriteNsPerEpoch = writeSum / writeN
	}
	if row.Epochs > 0 {
		row.BytesPerEpoch = row.TotalBytes / row.Epochs
	}
	row.ElapsedMS = float64(elapsed.Nanoseconds()) / 1e6
	return row, nil
}

// ckptKillLegs runs the resume-identity matrix: each kill budget x each
// full-snapshot cadence. The reference edge stream comes from one
// uninterrupted run without checkpointing.
func ckptKillLegs(cfg CkptConfig, pr model.Params, fulls []int) ([]CkptKillRow, error) {
	part, err := partition.New(partition.KindRRP, cfg.N, cfg.Ranks)
	if err != nil {
		return nil, err
	}
	refDir := filepath.Join(cfg.Dir, "ref-shards")
	if err := os.MkdirAll(refDir, 0o755); err != nil {
		return nil, err
	}
	if _, err := core.Run(core.Options{
		Params: pr, Part: part, Seed: cfg.Seed,
		StreamDir: refDir,
	}, false); err != nil {
		return nil, fmt.Errorf("bench: reference run: %w", err)
	}
	basePort := cfg.BasePort
	if basePort == 0 {
		basePort = 45200
	}
	every := cfg.Every[0]
	var kills []CkptKillRow
	leg := 0
	for _, fe := range fulls {
		for _, ks := range cfg.KillSends {
			row, err := ckptKillOnce(cfg, pr, part, every, fe, ks,
				basePort+leg*2*cfg.Ranks, refDir)
			if err != nil {
				return kills, err
			}
			kills = append(kills, row)
			leg++
		}
	}
	return kills, nil
}

// ckptKillOnce kills one TCP cluster mid-run (chaos on the last rank),
// resumes it, and compares the resumed shard output to the reference.
func ckptKillOnce(cfg CkptConfig, pr model.Params, part partition.Scheme,
	every int64, fullEvery int, killSends int64, basePort int, refDir string) (CkptKillRow, error) {
	row := CkptKillRow{KillAfterSends: killSends, FullEvery: fullEvery}
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("kill-s%d-f%d", killSends, fullEvery))
	ckDir, shDir := filepath.Join(dir, "ck"), filepath.Join(dir, "shards")
	for _, d := range []string{ckDir, shDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return row, err
		}
	}
	runCluster := func(port int, kill int64, resume bool) []error {
		addrs := make([]string, cfg.Ranks)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", port+i)
		}
		opts := core.Options{
			Params: pr, Part: part, Seed: cfg.Seed,
			Checkpoint: &core.CheckpointOptions{
				Dir: ckDir, Every: every, FullEvery: fullEvery, Resume: resume,
			},
			StreamDir: shDir,
		}
		errs := make([]error, cfg.Ranks)
		var wg sync.WaitGroup
		for r := 0; r < cfg.Ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				tr, err := transport.NewTCP(r, addrs)
				if err != nil {
					errs[r] = err
					return
				}
				if kill > 0 && r == cfg.Ranks-1 {
					chaotic := transport.NewChaos(tr, transport.ChaosConfig{
						Seed: cfg.Seed, KillAfterSends: kill,
					})
					_, errs[r] = core.RunRank(chaotic, opts)
					chaotic.Close()
					return
				}
				defer tr.Close()
				_, errs[r] = core.RunRank(tr, opts)
			}(r)
		}
		wg.Wait()
		return errs
	}
	// First pass: kill mid-run. Every outcome is acceptable here — a
	// large budget may let the cluster finish — the verdict is the
	// resumed output.
	runCluster(basePort, killSends, false)
	// Second pass: resume on fresh ports (the killed listeners may
	// linger in TIME_WAIT) and require success.
	for r, err := range runCluster(basePort+cfg.Ranks, 0, true) {
		if err != nil {
			return row, fmt.Errorf("bench: resume after kill(%d sends): rank %d: %w", killSends, r, err)
		}
	}
	identical, edges, err := sameEdgeStream(shDir, refDir, cfg.Ranks)
	if err != nil {
		return row, err
	}
	row.Identical, row.Edges = identical, edges
	return row, nil
}

// sameEdgeStream compares two shard directories edge for edge.
func sameEdgeStream(gotDir, wantDir string, ranks int) (bool, int64, error) {
	got, err := esink.OpenDir(gotDir, ranks)
	if err != nil {
		return false, 0, err
	}
	defer got.Close()
	want, err := esink.OpenDir(wantDir, ranks)
	if err != nil {
		return false, 0, err
	}
	defer want.Close()
	if got.Edges() != want.Edges() {
		return false, got.Edges(), nil
	}
	gi, wi := got.Iter(0), want.Iter(0)
	for {
		ge, gok := gi.Next()
		we, wok := wi.Next()
		if gok != wok {
			return false, got.Edges(), nil
		}
		if !gok {
			break
		}
		if ge != we {
			return false, got.Edges(), nil
		}
	}
	if err := gi.Err(); err != nil {
		return false, 0, err
	}
	if err := wi.Err(); err != nil {
		return false, 0, err
	}
	return true, got.Edges(), nil
}

// ReadCkptJSON reads a prior checkpoint sweep report (its Rows become
// the next report's Baseline).
func ReadCkptJSON(path string) (*CkptReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep CkptReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &rep, nil
}

// WriteCkptJSON writes the checkpoint sweep record, folding base's Rows
// in as the baseline when present.
func WriteCkptJSON(w io.Writer, base *CkptReport, rep CkptReport) error {
	if base != nil {
		rep.Baseline = base.Rows
		rep.BaselineLabel = base.Label
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteCkpt prints the sweep as a human summary, with the speedup
// column against the baseline when one is present.
func WriteCkpt(w io.Writer, rep CkptReport) error {
	base := make(map[[2]int64]CkptRow, len(rep.Baseline))
	for _, b := range rep.Baseline {
		base[[2]int64{b.Every, int64(b.FullEvery)}] = b
	}
	if _, err := fmt.Fprintf(w,
		"ckpt bench: n=%d x=%d ranks=%d seed=%d\n"+
			"%-10s %-6s %8s %14s %14s %12s %10s %10s\n",
		rep.N, rep.X, rep.Ranks, rep.Seed,
		"every", "full", "epochs", "pause/epoch", "write/epoch", "bytes/epoch", "wall_ms", "speedup"); err != nil {
		return err
	}
	for _, r := range rep.Rows {
		speedup := "-"
		if b, ok := base[[2]int64{r.Every, int64(r.FullEvery)}]; ok && r.PauseNsPerEpoch > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(b.PauseNsPerEpoch)/float64(r.PauseNsPerEpoch))
		}
		if _, err := fmt.Fprintf(w, "%-10d %-6d %8d %14d %14d %12d %10.1f %10s\n",
			r.Every, r.FullEvery, r.Epochs, r.PauseNsPerEpoch, r.WriteNsPerEpoch,
			r.BytesPerEpoch, r.ElapsedMS, speedup); err != nil {
			return err
		}
	}
	for _, k := range rep.Kills {
		if _, err := fmt.Fprintf(w, "kill after %d sends (full-every %d): resumed %d edges, identical=%v\n",
			k.KillAfterSends, k.FullEvery, k.Edges, k.Identical); err != nil {
			return err
		}
	}
	return nil
}
