package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pagen/internal/ckpt"
	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
)

// streamEdges reads back the merged canonical edge stream of a streamed
// run's shard directory.
func streamEdges(t *testing.T, dir string, ranks int) []graph.Edge {
	t.Helper()
	d, err := esink.OpenDir(dir, ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	it := d.Iter(0)
	var out []graph.Edge
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// The core streaming property: a run with StreamDir set produces, after
// the shard merge, exactly the edge list the in-memory path produces.
// Each subtest first resumes a streamed snapshot the multi-worker engine
// wrote at ranks × workers (testdata/v5-workers-stream: its epoch-1
// checkpoint and the shard prefix that epoch made durable), then
// re-runs from scratch into the same directory with tiny blocks that
// force many partial sorted blocks per shard.
func TestStreamMatchesInMemory(t *testing.T) {
	pr := model.Params{N: 1_500, X: 2, P: 0.5}
	for _, ranks := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("ranks=%d_workers=%d", ranks, workers), func(t *testing.T) {
				part, err := partition.New(partition.KindRRP, pr.N, ranks)
				if err != nil {
					t.Fatal(err)
				}
				base, err := Run(Options{Params: pr, Part: part, Seed: 21}, false)
				if err != nil {
					t.Fatal(err)
				}
				fix := workerFixture(t, "v5-workers-stream", ranks, workers, "ckpt")
				dir := filepath.Join(fix, "stream")
				res := runWithin(t, Options{
					Params: pr, Part: part, Seed: 21,
					StreamDir: dir, StreamBlockEdges: 512,
					Checkpoint: &CheckpointOptions{Dir: filepath.Join(fix, "ckpt"), Resume: true},
				})
				if res.Graph != nil {
					t.Fatal("streamed run returned an in-memory graph")
				}
				equalEdges(t, t.Name()+"/resumed", streamEdges(t, dir, ranks), base.Graph.Edges)

				// Re-running into the same directory must discard the
				// stale shards (Reset) and reproduce the same output.
				res, err = Run(Options{
					Params: pr, Part: part, Seed: 21,
					StreamDir: dir, StreamBlockEdges: 64,
				}, false)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range res.Ranks {
					if st.SinkBlocks < 2 || st.SinkBytes <= 0 {
						t.Fatalf("rank %d: blocks=%d bytes=%d, want several blocks", st.Rank, st.SinkBlocks, st.SinkBytes)
					}
				}
				equalEdges(t, t.Name()+"/rerun", streamEdges(t, dir, ranks), base.Graph.Edges)
			})
		}
	}
}

// The headline restart property for streamed runs: kill after any
// committed epoch — with the torn shard tail a kill mid-flush leaves —
// and the resumed run's merged shards are identical edge-for-edge to an
// uninterrupted run. Exercised at 2 and 4 ranks.
func TestStreamCheckpointResume(t *testing.T) {
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	for _, ranks := range []int{2, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			newPart := func() partition.Scheme {
				part, err := partition.New(partition.KindRRP, pr.N, ranks)
				if err != nil {
					t.Fatal(err)
				}
				return part
			}
			base, err := Run(Options{Params: pr, Part: newPart(), Seed: 7}, false)
			if err != nil {
				t.Fatal(err)
			}

			// Build the snapshot library. The epoch count is schedule-bound
			// (each epoch costs a quiescence pause, and a fast run can end
			// before a second trigger opens), so retry across a spread of
			// intervals until at least two epochs committed.
			var ckptDir, streamDir string
			var epochs []int64
			for _, every := range []int64{2000, 1500, 1000, 500, 250, 2000, 1500, 1000, 500, 250} {
				ckptDir, streamDir = t.TempDir(), t.TempDir()
				if _, err := Run(Options{
					Params: pr, Part: newPart(), Seed: 7,
					StreamDir: streamDir, StreamBlockEdges: 512,
					Checkpoint: &CheckpointOptions{Dir: ckptDir, Every: every, Keep: 1000},
				}, false); err != nil {
					t.Fatal(err)
				}
				var err error
				if epochs, err = ckpt.Epochs(ckptDir, 0); err != nil {
					t.Fatal(err)
				}
				if len(epochs) >= 2 {
					break
				}
			}
			if len(epochs) < 2 {
				t.Fatalf("only %d epochs committed across all retry intervals", len(epochs))
			}
			equalEdges(t, "uninterrupted streamed", streamEdges(t, streamDir, ranks), base.Graph.Edges)

			resume := func(label string) {
				res, err := Run(Options{
					Params: pr, Part: newPart(), Seed: 7,
					StreamDir: streamDir, StreamBlockEdges: 512,
					Checkpoint: &CheckpointOptions{Dir: ckptDir, Keep: 1000, Resume: true},
				}, false)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Graph != nil {
					t.Fatalf("%s: streamed resume returned an in-memory graph", label)
				}
				equalEdges(t, label, streamEdges(t, streamDir, ranks), base.Graph.Edges)
			}

			// tear simulates the kill's torn tail: garbage appended past
			// the durable prefix, which Recover must scan past and drop.
			tear := func() {
				for r := 0; r < ranks; r++ {
					f, err := os.OpenFile(esink.ShardPath(streamDir, r, ranks), os.O_WRONLY|os.O_APPEND, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write([]byte{'B', 0x9f, 0x03, 0x55, 0xaa, 0x00}); err != nil {
						t.Fatal(err)
					}
					f.Close()
				}
			}

			// Newest epoch, then again over the resumed run's own shards.
			top := epochs[len(epochs)-1]
			tear()
			resume(fmt.Sprintf("epoch %d", top))
			resume(fmt.Sprintf("epoch %d again", top))

			// Every earlier epoch, trimming snapshots as a crash at that
			// epoch would have, tearing the shard tails each time.
			for i := len(epochs) - 2; i >= 0; i-- {
				for r := 0; r < ranks; r++ {
					if err := os.Remove(ckpt.Path(ckptDir, r, epochs[i+1])); err != nil {
						t.Fatal(err)
					}
				}
				tear()
				resume(fmt.Sprintf("epoch %d", epochs[i]))
			}

			// With every snapshot gone, Resume must fall back to a fresh
			// streamed run (Reset discards the stale shards).
			for r := 0; r < ranks; r++ {
				if err := os.Remove(ckpt.Path(ckptDir, r, epochs[0])); err != nil {
					t.Fatal(err)
				}
			}
			resume("empty dir fresh start")
		})
	}
}

// Mode mixing across a restart must fail loudly: a streamed snapshot
// resumed without -stream-dir would re-emit edges the shard already
// holds, and vice versa.
func TestStreamResumeModeMismatch(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindUCP, pr.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(streamDir, ckptDir string, resume bool) error {
		_, err := Run(Options{
			Params: pr, Part: part, Seed: 4,
			StreamDir:  streamDir,
			Checkpoint: &CheckpointOptions{Dir: ckptDir, Every: 500, Resume: resume},
		}, false)
		return err
	}

	streamedCkpt := t.TempDir()
	if err := run(t.TempDir(), streamedCkpt, false); err != nil {
		t.Fatal(err)
	}
	if epochs, err := ckpt.Epochs(streamedCkpt, 0); err != nil || len(epochs) == 0 {
		t.Fatalf("streamed run committed no epochs (err=%v)", err)
	}
	if err := run("", streamedCkpt, true); err == nil || !strings.Contains(err.Error(), "stream") {
		t.Fatalf("in-memory resume of streamed snapshot: err = %v, want stream-mode mismatch", err)
	}

	plainCkpt := t.TempDir()
	if err := run("", plainCkpt, false); err != nil {
		t.Fatal(err)
	}
	if err := run(t.TempDir(), plainCkpt, true); err == nil || !strings.Contains(err.Error(), "stream") {
		t.Fatalf("streamed resume of in-memory snapshot: err = %v, want stream-mode mismatch", err)
	}
}

// StreamDir and Sink are mutually exclusive edge destinations.
func TestStreamSinkExclusive(t *testing.T) {
	pr := model.Params{N: 1_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindUCP, pr.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Options{
		Params: pr, Part: part, Seed: 1,
		Sink:      func(int, graph.Edge) {},
		StreamDir: t.TempDir(),
	}, false)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v, want mutual-exclusion error", err)
	}
}
