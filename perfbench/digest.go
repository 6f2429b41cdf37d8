package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/seq"
)

// digest is an order-independent fingerprint of an undirected edge
// multiset: the edge count plus two independent 64-bit hash sums over
// canonical (min, max) endpoint pairs. Generators emit edges in
// different orders (rank-major, slot order, shard blocks), so the
// output check compares multisets, never byte streams.
type digest struct {
	N     int64 // node count the output declares
	Edges int64
	A, B  uint64
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (d *digest) add(u, v int64) {
	if u > v {
		u, v = v, u
	}
	h := mix64(uint64(u)*0x9e3779b97f4a7c15 ^ mix64(uint64(v)))
	d.A += h
	d.B += mix64(h ^ 0x2545f4914f6cdd1d)
	d.Edges++
}

func (d digest) String() string {
	return fmt.Sprintf("n=%d m=%d %016x%016x", d.N, d.Edges, d.A, d.B)
}

// check reports a mismatch against the reference digest as an error.
func (d digest) check(ref digest) error {
	if d != ref {
		return fmt.Errorf("output digest %v, want %v", d, ref)
	}
	return nil
}

func digestGraph(g *graph.Graph) digest {
	d := digest{N: g.N}
	for _, e := range g.Edges {
		d.add(e.U, e.V)
	}
	return d
}

// referenceDigest runs seq.CopyModel, the paper's sequential T_s
// baseline, and fingerprints its output. It returns the generation time
// alone so a traced run can report it as the seq layer's span.
func referenceDigest(n int64, x int, seed uint64) (digest, spanTimes, error) {
	var st spanTimes
	st.start()
	g, _, err := seq.CopyModel(model.Params{N: n, X: x, P: model.DefaultP}, seed, seq.CopyModelOptions{})
	st.stop()
	if err != nil {
		return digest{}, st, fmt.Errorf("seq.CopyModel: %w", err)
	}
	return digestGraph(g), st, nil
}

// digestTextFile fingerprints a file in graph.WriteText format. It
// parses by hand because graph.ReadText materialises the edge list and
// splits every line into strings, which costs more than the generation
// it checks.
func digestTextFile(path string) (digest, error) {
	f, err := os.Open(path)
	if err != nil {
		return digest{}, err
	}
	defer f.Close()
	d := digest{N: -1}
	br := bufio.NewReaderSize(f, 1<<20)
	for line := 1; ; line++ {
		b, err := br.ReadSlice('\n')
		if err == io.EOF && len(b) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return digest{}, fmt.Errorf("%s: line %d: %w", path, line, err)
		}
		b = bytes.TrimRight(b, "\n")
		if len(b) > 0 && b[0] == '#' {
			if _, err := fmt.Sscanf(string(b), "# nodes %d", &d.N); err != nil {
				return digest{}, fmt.Errorf("%s: line %d: bad header %q", path, line, b)
			}
			continue
		}
		tab := bytes.IndexByte(b, '\t')
		u, ok1 := parseUint(b[:max(tab, 0)])
		v, ok2 := parseUint(b[tab+1:])
		if tab < 0 || !ok1 || !ok2 {
			return digest{}, fmt.Errorf("%s: line %d: bad edge %q", path, line, b)
		}
		d.add(u, v)
	}
	return d, nil
}

func parseUint(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

// digestBinaryFile fingerprints a graph.WriteBinary file via
// graph.ReadBinary.
func digestBinaryFile(path string) (digest, error) {
	f, err := os.Open(path)
	if err != nil {
		return digest{}, err
	}
	defer f.Close()
	g, err := graph.ReadBinary(f)
	if err != nil {
		return digest{}, fmt.Errorf("%s: %w", path, err)
	}
	return digestGraph(g), nil
}

// digestShards reads a streamed run's shards back through the esink
// reader (esink.OpenDir, then the merged DirIter), timing the open and
// the iteration separately for the traced run.
func digestShards(dir string, ranks int) (digest, spanTimes, spanTimes, error) {
	var open, iter spanTimes
	open.start()
	dr, err := esink.OpenDir(dir, ranks)
	open.stop()
	if err != nil {
		return digest{}, open, iter, fmt.Errorf("esink.OpenDir: %w", err)
	}
	defer dr.Close()
	d := digest{N: dr.Meta().N}
	iter.start()
	it := dr.Iter(0)
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		d.add(e.U, e.V)
	}
	iter.stop()
	if err := it.Err(); err != nil {
		return digest{}, open, iter, fmt.Errorf("esink iterate %s: %w", dir, err)
	}
	return d, open, iter, nil
}
