package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pagen"
	"pagen/internal/partition"
)

// host records what the numbers were measured on and with.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the checkout's git commit when it is a repository;
	// Source fingerprints the Go sources either way.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func hostFacts(root string) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "none"}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.Source = sourceDigest(root)
	return h
}

// sourceDigest hashes the module's Go sources (go.mod and every .go file
// outside build output), in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the source
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

var flagDefault = regexp.MustCompile(`\(default "?([^")]*)"?\)$`)

// pagenDefaults reads the default of every pagen flag from its -h
// output, so the benchmark (and its traced run) follows the defaults a
// user gets instead of a copy of them.
func pagenDefaults(bin string) (map[string]string, error) {
	var out bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, "pagen"), "-h")
	cmd.Stderr = &out
	_ = cmd.Run() // -h exits 2 by flag package convention
	defs := map[string]string{}
	var name string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); strings.HasPrefix(line, "  -") && len(f) > 0 {
			name = strings.TrimPrefix(f[0], "-")
			defs[name] = ""
			line = strings.TrimPrefix(strings.TrimSpace(line), f[0])
		}
		if m := flagDefault.FindStringSubmatch(line); m != nil && name != "" {
			defs[name] = m[1]
		}
	}
	if _, ok := defs["ranks"]; !ok {
		return nil, fmt.Errorf("pagen -h lists no -ranks flag:\n%s", out.String())
	}
	return defs, nil
}

// defaultConfig is the pagen.Config the pagen CLI runs at its flag
// defaults for n, x and seed, and the effective engine settings those
// defaults resolve to on this host.
func defaultConfig(defs map[string]string, n int64, x int, seed uint64) (pagen.Config, map[string]any, error) {
	num := func(k string) (int64, error) {
		if defs[k] == "" {
			return 0, nil
		}
		return strconv.ParseInt(defs[k], 10, 64)
	}
	ranks, err1 := num("ranks")
	workers, err2 := num("workers")
	hub, err3 := num("hub-prefix")
	p, err4 := strconv.ParseFloat(defs["p"], 64)
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			return pagen.Config{}, nil, fmt.Errorf("pagen flag defaults %v: %w", defs, err)
		}
	}
	cfg := pagen.Config{N: n, X: x, P: p, Seed: seed, Ranks: int(ranks), Workers: int(workers),
		Transport: defs["transport"], Scheme: defs["scheme"], HubPrefix: hub, Resolve: defs["resolve"]}
	return cfg, effective(cfg), nil
}

// effective resolves the engine's automatic settings for cfg: workers
// per rank (0 = GOMAXPROCS) and the hub-prefix size (0 = auto, sized by
// partition.HubPrefixAutoSize; off on one rank).
func effective(cfg pagen.Config) map[string]any {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	hub := cfg.HubPrefix
	switch {
	case hub < 0 || cfg.Ranks <= 1 || cfg.P >= 1:
		hub = 0
	case hub == 0:
		hub = partition.HubPrefixAutoSize(cfg.N, cfg.X, cfg.Ranks)
	}
	return map[string]any{
		"n": cfg.N, "x": cfg.X, "p": cfg.P, "ranks": cfg.Ranks, "workers": workers,
		"transport": cfg.Transport, "scheme": cfg.Scheme, "resolve": cfg.Resolve,
		"hub_prefix": hub, "memory_estimate_mb": float64(pagen.MemoryEstimate(cfg)) / (1 << 20),
	}
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile with linear interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest percentile with at least ten samples above
// it, and that percentile. Below 20 samples that percentile would lie
// under the median, so the maximum (percentile 100) stands in.
func tail(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 20 {
		return s[len(s)-1], 100
	}
	return s[len(s)-11], 100 * float64(len(s)-10) / float64(len(s))
}

// ratio is a/b, or 0 when the base is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
