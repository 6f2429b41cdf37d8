// Package esink implements the streaming external-memory edge sink:
// per-rank shard files that hold a rank's resolved edges as sorted,
// delta-encoded, CRC-protected blocks, written with bounded memory no
// matter how large the run is (docs/SHARD_FORMAT.md is the byte spec).
//
// A rank emits edges as they resolve, tagged with the edge's canonical
// slot key (local node index times x plus edge index), which is unique
// per rank and defines the canonical per-rank order — the exact order
// the in-memory engine emits edges in. Emission order follows the
// message schedule instead, so the writer buffers a fixed number of records,
// sorts each block by key at flush, and the reader k-way-merges the
// sorted blocks back into canonical order. Merging the per-rank streams
// rank-major therefore reproduces the in-memory merged graph byte for
// byte.
//
// The writer integrates with checkpoint/restart: Cut flushes the open
// block and fsyncs, returning a durable Mark (byte offset, block count,
// edge count) that internal/ckpt stores in the snapshot; Recover
// truncates a shard back to a Mark so a resumed run regenerates exactly
// the missing suffix, with no duplicated or dropped edges.
package esink

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

const (
	// Magic opens every shard file.
	Magic = "PAGSHRD1"
	// Version is the shard format version; readers reject others.
	Version = 1
	// DefaultBlockEdges is the default number of edge records buffered
	// per block. At 16 bytes of buffer per record the open block costs
	// ~1 MiB per rank — the writer's whole memory footprint.
	DefaultBlockEdges = 1 << 16

	blockMarker = 'B'
	eosMarker   = 'E'
)

// castagnoli is the CRC-32C table (iSCSI polynomial) shared by writer
// and reader — the same polynomial the checkpoint format uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta identifies the run a shard belongs to. Readers validate shards
// against each other (and Recover validates the file against the
// resuming run), because merging shards of different runs — or re-using
// a stale shard file — would silently corrupt the output graph.
type Meta struct {
	N     int64
	X     int
	P     float64
	Seed  uint64
	Rank  int
	Ranks int
	// Scheme is the partition scheme name; the reader rebuilds the
	// partition from it to re-derive each record's source node U from
	// the slot key (records store only key and V).
	Scheme string
}

// Mark is a durable position in a shard file: everything up to Offset
// is flushed and fsynced, comprising Blocks complete blocks holding
// Edges edge records. Checkpoint snapshots carry the rank's Mark; a
// resumed run truncates the shard back to it.
type Mark struct {
	Offset int64
	Blocks int64
	Edges  int64
}

// Stats are a writer's lifetime counters (the obs sink_* metrics).
type Stats struct {
	// Edges is the total records in the file, the recovered prefix
	// included. BlocksFlushed and BytesWritten count this process's own
	// writes; Fsyncs and FsyncNanos its durability stalls.
	Edges         int64
	BlocksFlushed int64
	BytesWritten  int64
	Fsyncs        int64
	FsyncNanos    int64
}

// ShardPath returns the shard filename for rank under dir in a run with
// the given total rank count.
func ShardPath(dir string, rank, ranks int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.pags", rank, ranks))
}

// rec is one buffered edge record. U is not stored: the reader derives
// it from the key via the partition (U = NodeAt(rank, key/x)).
type rec struct {
	key uint64
	v   int64
}

// Writer appends sorted, CRC-protected edge blocks to one rank's shard
// file. Emit and the other methods belong to the rank's goroutine,
// except Sync, which the rank's background checkpoint writer calls
// concurrently; the lock covers that overlap. Exactly one
// of Reset or Recover must be called before the first Emit.
type Writer struct {
	mu   sync.Mutex
	f    *os.File
	meta Meta

	blockEdges int
	buf        []rec  // open block, unsorted
	enc        []byte // reused block encode buffer

	off     int64 // current end-of-file offset
	blocks  int64 // complete blocks in the file
	edges   int64 // records in complete blocks (open block excluded)
	started bool  // Reset or Recover ran
	closed  bool

	err   error
	stats Stats
}

// Open opens (creating if absent, never truncating) the shard file for
// meta.Rank under dir. The file is not written until Reset or Recover
// decides whether its existing contents survive.
func Open(dir string, meta Meta, blockEdges int) (*Writer, error) {
	if blockEdges <= 0 {
		blockEdges = DefaultBlockEdges
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("esink: %w", err)
	}
	path := ShardPath(dir, meta.Rank, meta.Ranks)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("esink: %w", err)
	}
	return &Writer{
		f:          f,
		meta:       meta,
		blockEdges: blockEdges,
		buf:        make([]rec, 0, blockEdges),
	}, nil
}

// Path returns the shard file's path.
func (w *Writer) Path() string { return w.f.Name() }

// encodeHeader renders the shard header (magic through CRC) into buf.
func encodeHeader(meta Meta) []byte {
	b := make([]byte, 0, 64+len(meta.Scheme))
	b = append(b, Magic...)
	b = binary.AppendUvarint(b, Version)
	b = binary.AppendUvarint(b, uint64(meta.N))
	b = binary.AppendUvarint(b, uint64(meta.X))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(meta.P))
	b = binary.LittleEndian.AppendUint64(b, meta.Seed)
	b = binary.AppendUvarint(b, uint64(meta.Rank))
	b = binary.AppendUvarint(b, uint64(meta.Ranks))
	b = binary.AppendUvarint(b, uint64(len(meta.Scheme)))
	b = append(b, meta.Scheme...)
	crc := crc32.Checksum(b, castagnoli)
	b = binary.LittleEndian.AppendUint32(b, crc)
	return b
}

// Reset truncates the shard to empty and writes a fresh header — the
// fresh-start path (stale files from an earlier run are discarded).
func (w *Writer) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		return w.setErr(fmt.Errorf("esink: Reset after start"))
	}
	if err := w.f.Truncate(0); err != nil {
		return w.setErr(err)
	}
	hdr := encodeHeader(w.meta)
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		return w.setErr(err)
	}
	w.off = int64(len(hdr))
	w.stats.BytesWritten += int64(len(hdr))
	w.started = true
	return nil
}

// Recover validates the existing shard against mark — same run meta,
// and an intact, CRC-clean block chain landing exactly on mark.Offset
// with mark's block and edge counts — then truncates the file to
// mark.Offset, discarding blocks flushed after the checkpoint cut and
// any torn tail the kill left behind. The resumed run appends from
// there.
func (w *Writer) Recover(mark Mark) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		return w.setErr(fmt.Errorf("esink: Recover after start"))
	}
	sc, err := scanShard(w.f, true)
	if err != nil {
		return w.setErr(fmt.Errorf("esink: recover %s: %w", w.f.Name(), err))
	}
	if sc.meta != w.meta {
		return w.setErr(fmt.Errorf("esink: recover %s: shard belongs to a different run (%+v, want %+v)", w.f.Name(), sc.meta, w.meta))
	}
	// Find the durable prefix the mark names. The chain scan stops at
	// the first torn block, which must lie at or beyond mark.Offset:
	// everything before the mark was fsynced at the cut.
	var blocks, edges int64
	off := sc.headerLen
	for _, b := range sc.blocks {
		if b.off >= mark.Offset {
			break
		}
		blocks++
		edges += b.count
		off = b.off + b.size
	}
	if off != mark.Offset || blocks != mark.Blocks || edges != mark.Edges {
		return w.setErr(fmt.Errorf("esink: recover %s: durable prefix is %d bytes / %d blocks / %d edges, checkpoint expects %d / %d / %d (shard damaged or from a different epoch sequence)",
			w.f.Name(), off, blocks, edges, mark.Offset, mark.Blocks, mark.Edges))
	}
	if err := w.f.Truncate(mark.Offset); err != nil {
		return w.setErr(err)
	}
	w.off = mark.Offset
	w.blocks = mark.Blocks
	w.edges = mark.Edges
	w.started = true
	return nil
}

// Emit appends one edge record (slot key, attachment value) to the open
// block, flushing it when full. Safe for concurrent use.
func (w *Writer) Emit(key uint64, v int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if !w.started {
		return w.setErr(fmt.Errorf("esink: Emit before Reset/Recover"))
	}
	w.buf = append(w.buf, rec{key: key, v: v})
	if len(w.buf) >= w.blockEdges {
		return w.flushLocked()
	}
	return nil
}

// flushLocked sorts and writes the open block. Caller holds w.mu.
func (w *Writer) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	sort.Slice(w.buf, func(i, j int) bool { return w.buf[i].key < w.buf[j].key })

	// Payload: first record (key, v) absolute; rest (key delta >= 1, v).
	payload := w.enc[:0]
	prev := uint64(0)
	for i, r := range w.buf {
		if i == 0 {
			payload = binary.AppendUvarint(payload, r.key)
		} else {
			payload = binary.AppendUvarint(payload, r.key-prev)
		}
		prev = r.key
		payload = binary.AppendUvarint(payload, uint64(r.v))
	}

	blk := make([]byte, 0, len(payload)+32)
	blk = append(blk, blockMarker)
	blk = binary.AppendUvarint(blk, uint64(w.blocks))
	blk = binary.AppendUvarint(blk, uint64(len(w.buf)))
	blk = binary.AppendUvarint(blk, uint64(len(payload)))
	blk = append(blk, payload...)
	crc := crc32.Checksum(blk, castagnoli)
	blk = binary.LittleEndian.AppendUint32(blk, crc)

	if _, err := w.f.WriteAt(blk, w.off); err != nil {
		return w.setErr(err)
	}
	w.off += int64(len(blk))
	w.blocks++
	w.edges += int64(len(w.buf))
	w.stats.BlocksFlushed++
	w.stats.BytesWritten += int64(len(blk))
	w.enc = payload[:0]
	w.buf = w.buf[:0]
	return nil
}

// Cut flushes the open block and fsyncs, returning the durable Mark for
// a checkpoint snapshot. The engine calls it at a globally quiescent
// cut, so no Emit races it.
func (w *Writer) Cut() (Mark, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return Mark{}, w.err
	}
	if err := w.flushLocked(); err != nil {
		return Mark{}, err
	}
	if err := w.syncLocked(); err != nil {
		return Mark{}, err
	}
	return Mark{Offset: w.off, Blocks: w.blocks, Edges: w.edges}, nil
}

// Mark flushes the open block (a page-cache write) and returns the
// shard mark at the complete-block boundary — Cut without the fsync.
// The engine's fast capture uses it at a quiescent cut and defers the
// fsync to its background writer (Sync), which must complete before a
// snapshot naming the mark is published.
func (w *Writer) Mark() (Mark, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return Mark{}, w.err
	}
	if err := w.flushLocked(); err != nil {
		return Mark{}, err
	}
	return Mark{Offset: w.off, Blocks: w.blocks, Edges: w.edges}, nil
}

// Sync fsyncs the shard. Safe against concurrent Emit (the mutex orders
// them); syncing bytes emitted after a Mark is harmless — a mark only
// promises its prefix is durable, not that nothing follows it.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	t0 := time.Now()
	err := w.f.Sync()
	w.stats.Fsyncs++
	w.stats.FsyncNanos += time.Since(t0).Nanoseconds()
	if err != nil {
		return w.setErr(err)
	}
	return nil
}

// Close flushes the open block, writes the end-of-stream record, fsyncs
// and closes the file. Only a Closed shard is complete: readers in
// strict mode require the EOS record.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	if err := w.flushLocked(); err != nil {
		w.f.Close()
		return err
	}
	eos := make([]byte, 0, 32)
	eos = append(eos, eosMarker)
	eos = binary.AppendUvarint(eos, uint64(w.edges))
	eos = binary.AppendUvarint(eos, uint64(w.blocks))
	crc := crc32.Checksum(eos, castagnoli)
	eos = binary.LittleEndian.AppendUint32(eos, crc)
	if _, err := w.f.WriteAt(eos, w.off); err != nil {
		w.f.Close()
		return w.setErr(err)
	}
	w.off += int64(len(eos))
	w.stats.BytesWritten += int64(len(eos))
	if err := w.syncLocked(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return w.setErr(err)
	}
	return nil
}

// Abort closes the file handle without writing the end-of-stream
// record, leaving whatever durable prefix exists for a later Recover.
// Used on engine failure paths.
func (w *Writer) Abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.f.Close()
}

// Stats returns the writer's lifetime counters. Edges reflects complete
// blocks only until Close flushes the open block.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.Edges = w.edges
	return st
}

// Err returns the latched first error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *Writer) setErr(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}
