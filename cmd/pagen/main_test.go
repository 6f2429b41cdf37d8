package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Bad flag combinations and formats fail before any generation and
// before any file is created. n is large enough that a run which did
// generate first would take seconds, not milliseconds.
func TestRejectsBadFlagsBeforeGenerating(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"format", []string{"-format", "bogus"}, "-format"},
		{"ranks", []string{"-ranks", "0"}, "-ranks"},
		{"transport", []string{"-transport", "tcp"}, "pa-tcp"},
		{"stream-dir with -o", []string{"-stream-dir", "S"}, "-o"},
		{"stream-dir with -shard-dir", []string{"-stream-dir", "S", "-shard-dir", "D"}, "mutually exclusive"},
		{"checkpoint with -shard-dir", []string{"-checkpoint-dir", "C", "-shard-dir", "D"}, "-shard-dir"},
		{"seq with -metrics", []string{"-seq", "-metrics", "M"}, "-metrics needs the parallel engine"},
		{"seq with -ranks", []string{"-seq", "-ranks", "2"}, "-ranks needs the parallel engine"},
		{"seq with -stream-dir", []string{"-seq", "-stream-dir", "S"}, "-stream-dir needs the parallel engine"},
		{"seq with -checkpoint-dir", []string{"-seq", "-checkpoint-dir", "C"}, "-checkpoint-dir needs the parallel engine"},
		{"seq with -resolve", []string{"-seq", "-resolve", "wire"}, "-resolve needs the parallel engine"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-n", "2000000"}
			for _, a := range c.args {
				switch a {
				case "S", "D", "C", "M":
					a = filepath.Join(dir, a)
				}
				args = append(args, a)
			}
			out := filepath.Join(dir, "g.txt")
			args = append(args, "-o", out)
			start := time.Now()
			err := run(args)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%q) = %v, want an error mentioning %q", args, err, c.want)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("rejection took %v; it should precede generation", d)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Fatalf("rejected run left %d entries behind (first %s)", len(entries), entries[0].Name())
			}
		})
	}
}

// A valid run writes its output in the requested format, and the seq
// path accepts the flags it shares with the engine.
func TestWritesOutput(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-n", "2000", "-ranks", "2", "-format", "binary", "-o", filepath.Join(dir, "par.bin")},
		{"-seq", "-n", "2000", "-seed", "3", "-format", "text", "-o", filepath.Join(dir, "seq.txt")},
	} {
		if err := run(args); err != nil {
			t.Fatalf("run(%q): %v", args, err)
		}
		st, err := os.Stat(args[len(args)-1])
		if err != nil || st.Size() == 0 {
			t.Fatalf("run(%q) wrote no output: %v", args, err)
		}
	}
}
