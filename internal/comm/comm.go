// Package comm implements the communicator of the parallel generator: the
// layer between the engine (internal/core) and the raw transport. It
// provides what the paper's MPI usage provides — buffered sends that
// combine multiple messages to the same destination into one transport
// operation (Section 3.5.1 "Message Buffering"), message counters for the
// load analysis of Section 4.6, and batch-oriented receive.
//
// Concurrency: the send side is safe for concurrent use — each
// destination's buffer is an independently locked stripe and the
// counters are atomic. The receive side (Poll, Wait) is
// single-consumer: exactly one goroutine per rank drains the transport.
//
// Flush discipline (engine responsibility, supported here): the paper's
// Section 3.5.2 deadlock rule — resolved messages must leave the buffer
// after processing every received group — maps to calling FlushAll before
// every blocking Wait. The unbounded-mailbox transport cannot deadlock on
// full buffers, but an unflushed buffer would still stall the protocol
// forever, so the rule is as load-bearing here as under MPI.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pagen/internal/msg"
	"pagen/internal/transport"
)

// Config controls buffering.
type Config struct {
	// BufferCap is the number of messages a per-destination buffer holds
	// before an automatic flush. 1 disables buffering (every message is
	// its own transport frame) — the unbuffered ablation. 0 selects
	// DefaultBufferCap.
	BufferCap int
}

// DefaultBufferCap is the default per-destination buffer capacity.
const DefaultBufferCap = 256

// Counters tallies protocol traffic for one rank. RequestsSent etc. count
// logical messages; FramesSent/FramesRecv count transport frames, so
// RequestsSent+ResolvedSent+ControlSent versus FramesSent measures how
// much buffering coalesced (the Figure 7 message-distribution inputs are
// the logical counts).
type Counters struct {
	RequestsSent int64
	RequestsRecv int64
	ResolvedSent int64
	ResolvedRecv int64
	PublishSent  int64
	PublishRecv  int64
	ControlSent  int64
	ControlRecv  int64
	FramesSent   int64
	FramesRecv   int64
	BytesSent    int64
	BytesRecv    int64
}

// MessagesSent returns the total logical messages sent.
func (c Counters) MessagesSent() int64 {
	return c.RequestsSent + c.ResolvedSent + c.PublishSent + c.ControlSent
}

// MessagesRecv returns the total logical messages received.
func (c Counters) MessagesRecv() int64 {
	return c.RequestsRecv + c.ResolvedRecv + c.PublishRecv + c.ControlRecv
}

// stripe is one destination's send buffer with its lock. Flush holds the
// lock through the transport send so per-destination frame order matches
// buffer order.
type stripe struct {
	mu  sync.Mutex
	buf []msg.Message
}

// Comm is a buffering communicator bound to one transport endpoint.
type Comm struct {
	// send-side counters, atomic (concurrent senders).
	requestsSent int64
	resolvedSent int64
	publishSent  int64
	controlSent  int64
	framesSent   int64
	bytesSent    int64
	// receive-side counters, single consumer.
	requestsRecv int64
	resolvedRecv int64
	publishRecv  int64
	controlRecv  int64
	framesRecv   int64
	bytesRecv    int64

	tr transport.Transport
	// ms is non-nil when tr provides the shared-memory no-serialize
	// path: flushes hand the stripe buffer across by reference instead
	// of encoding it, and a fresh buffer is leased from the pool.
	ms         transport.MsgSender
	cap        int
	stripes    []stripe
	requestsTo []int64 // atomic
	scratch    []msg.Message
	// drainMean is an exponential moving average of messages per drain,
	// used to shrink scratch after an atypically large backlog so one
	// burst does not pin its high-water capacity forever.
	drainMean float64
}

// New wraps a transport endpoint.
func New(tr transport.Transport, cfg Config) *Comm {
	capacity := cfg.BufferCap
	if capacity <= 0 {
		capacity = DefaultBufferCap
	}
	ms, _ := tr.(transport.MsgSender)
	return &Comm{
		tr:         tr,
		ms:         ms,
		cap:        capacity,
		stripes:    make([]stripe, tr.Size()),
		requestsTo: make([]int64, tr.Size()),
	}
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.tr.Rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.tr.Size() }

// Counters returns a snapshot of the traffic counters. Send-side counts
// are read atomically; receive-side counts are exact once the consumer
// goroutine has quiesced (the engine snapshots after its run ends).
func (c *Comm) Counters() Counters {
	return Counters{
		RequestsSent: atomic.LoadInt64(&c.requestsSent),
		RequestsRecv: c.requestsRecv,
		ResolvedSent: atomic.LoadInt64(&c.resolvedSent),
		ResolvedRecv: c.resolvedRecv,
		PublishSent:  atomic.LoadInt64(&c.publishSent),
		PublishRecv:  c.publishRecv,
		ControlSent:  atomic.LoadInt64(&c.controlSent),
		ControlRecv:  c.controlRecv,
		FramesSent:   atomic.LoadInt64(&c.framesSent),
		FramesRecv:   c.framesRecv,
		BytesSent:    atomic.LoadInt64(&c.bytesSent),
		BytesRecv:    c.bytesRecv,
	}
}

// RequestsTo returns a copy of the per-destination request counts — one
// row of the cluster's request-traffic matrix. Under consecutive
// partitioning the matrix is strictly lower-triangular (Section 4.6.2:
// processor i requests only from processors 0..i-1).
func (c *Comm) RequestsTo() []int64 {
	out := make([]int64, len(c.requestsTo))
	for i := range out {
		out[i] = atomic.LoadInt64(&c.requestsTo[i])
	}
	return out
}

// RequestsToView returns the live per-destination request counts without
// copying. The slice aliases the communicator's internal state: it is
// only stable once no further Sends will occur (the engine takes it when
// its run ends and the Comm is discarded). Callers that need a snapshot
// mid-run use RequestsTo.
func (c *Comm) RequestsToView() []int64 { return c.requestsTo }

// count tallies one outgoing message.
func (c *Comm) count(to int, m msg.Message) {
	switch m.Kind {
	case msg.KindRequest:
		atomic.AddInt64(&c.requestsSent, 1)
		atomic.AddInt64(&c.requestsTo[to], 1)
	case msg.KindResolved:
		atomic.AddInt64(&c.resolvedSent, 1)
	case msg.KindPublish:
		atomic.AddInt64(&c.publishSent, 1)
	default:
		atomic.AddInt64(&c.controlSent, 1)
	}
}

// Send buffers m for destination to, flushing automatically when the
// buffer reaches capacity. Safe for concurrent use.
func (c *Comm) Send(to int, m msg.Message) error {
	if to < 0 || to >= len(c.stripes) {
		return fmt.Errorf("comm: send to rank %d outside [0,%d)", to, len(c.stripes))
	}
	c.count(to, m)
	s := &c.stripes[to]
	s.mu.Lock()
	s.buf = append(s.buf, m)
	var err error
	if len(s.buf) >= c.cap {
		err = c.flushLocked(to, s)
	}
	s.mu.Unlock()
	return err
}

// SendNow sends m immediately, flushing anything already buffered for the
// destination first so per-pair ordering is preserved. Used for control
// messages that must not linger in a buffer.
func (c *Comm) SendNow(to int, m msg.Message) error {
	if to < 0 || to >= len(c.stripes) {
		return fmt.Errorf("comm: send to rank %d outside [0,%d)", to, len(c.stripes))
	}
	c.count(to, m)
	s := &c.stripes[to]
	s.mu.Lock()
	s.buf = append(s.buf, m)
	err := c.flushLocked(to, s)
	s.mu.Unlock()
	return err
}

// flushLocked transmits the stripe's buffered messages as one frame.
// Callers hold the stripe lock, which extends over the transport send so
// frames leave in buffer order.
func (c *Comm) flushLocked(to int, s *stripe) error {
	if len(s.buf) == 0 {
		return nil
	}
	if c.ms != nil {
		// Shared-memory fast path: the buffered batch crosses by
		// reference — ownership of the slice transfers to the receiver
		// (its decode releases it) and a fresh buffer is leased for the
		// stripe. No bytes are serialized, so BytesSent stays put;
		// FramesSent still counts the transfer.
		ms := s.buf
		s.buf = transport.LeaseMsgs(c.cap)
		atomic.AddInt64(&c.framesSent, 1)
		return c.ms.SendMsgs(to, ms)
	}
	// Lease the frame buffer from the transport pool (the receiving
	// decode path releases it) and encode compactly: at steady state a
	// flush allocates nothing.
	frame := transport.LeaseFrame(1 + len(s.buf)*10)
	frame = msg.AppendEncodeBatchV3(frame, s.buf)
	s.buf = s.buf[:0]
	atomic.AddInt64(&c.framesSent, 1)
	atomic.AddInt64(&c.bytesSent, int64(len(frame)))
	return c.tr.Send(to, frame)
}

// Flush transmits the buffered messages for rank to, if any, as one frame.
func (c *Comm) Flush(to int) error {
	if to < 0 || to >= len(c.stripes) {
		return fmt.Errorf("comm: flush rank %d outside [0,%d)", to, len(c.stripes))
	}
	s := &c.stripes[to]
	s.mu.Lock()
	err := c.flushLocked(to, s)
	s.mu.Unlock()
	return err
}

// FlushAll transmits every non-empty buffer.
func (c *Comm) FlushAll() error {
	for to := range c.stripes {
		if err := c.Flush(to); err != nil {
			return err
		}
	}
	return nil
}

// BufferedFrame returns destination to's buffered-but-unsent messages
// encoded as one wire-format frame, or nil if the buffer is empty. The
// buffer itself is untouched: the checkpoint layer snapshots pending
// sends with this, and on commit the run simply continues with them
// still buffered.
func (c *Comm) BufferedFrame(to int) []byte {
	s := &c.stripes[to]
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return nil
	}
	return msg.AppendEncodeBatchV3(make([]byte, 0, 1+len(s.buf)*10), s.buf)
}

// Buffered returns the number of messages currently buffered for to.
func (c *Comm) Buffered(to int) int {
	s := &c.stripes[to]
	s.mu.Lock()
	n := len(s.buf)
	s.mu.Unlock()
	return n
}

// decode appends the decoded messages of f to dst, updating counters.
// It consumes the frame: the buffer returns to the transport pool (the
// release half of the lease/release protocol).
func (c *Comm) decode(dst []msg.Message, f transport.Frame) ([]msg.Message, error) {
	if f.Msgs != nil {
		// Shared-memory fast path: the batch arrived by reference; copy
		// it out and release the slice back to the pool (the release
		// half of the lease/release protocol, mirroring ReleaseFrame).
		dst = append(dst, f.Msgs...)
		c.framesRecv++
		for _, m := range f.Msgs {
			switch m.Kind {
			case msg.KindRequest:
				c.requestsRecv++
			case msg.KindResolved:
				c.resolvedRecv++
			case msg.KindPublish:
				c.publishRecv++
			default:
				c.controlRecv++
			}
		}
		transport.ReleaseMsgs(f.Msgs)
		return dst, nil
	}
	before := len(dst)
	dst, err := msg.DecodeBatch(dst, f.Data)
	size := int64(len(f.Data))
	transport.ReleaseFrame(f.Data)
	if err != nil {
		return dst, fmt.Errorf("comm: frame from rank %d: %w", f.From, err)
	}
	c.framesRecv++
	c.bytesRecv += size
	for _, m := range dst[before:] {
		switch m.Kind {
		case msg.KindRequest:
			c.requestsRecv++
		case msg.KindResolved:
			c.resolvedRecv++
		case msg.KindPublish:
			c.publishRecv++
		default:
			c.controlRecv++
		}
	}
	return dst, nil
}

// scratchShrinkFloor is the capacity below which scratch is never shrunk:
// a few steady-state drains' worth of messages.
const scratchShrinkFloor = 4 * DefaultBufferCap

// resetScratch prepares scratch for a new drain. If the previous drain
// left the capacity far above the running mean drain size (a burst —
// e.g. the backlog after a long generation stretch between polls), the
// buffer is reallocated near the mean so one outlier does not pin its
// high-water memory for the rest of the run.
func (c *Comm) resetScratch() {
	if cap(c.scratch) > scratchShrinkFloor && float64(cap(c.scratch)) > 8*c.drainMean {
		c.scratch = make([]msg.Message, 0, int(2*c.drainMean)+DefaultBufferCap)
	}
	c.scratch = c.scratch[:0]
}

// noteDrain folds a completed drain's size into the running mean.
func (c *Comm) noteDrain() {
	c.drainMean += (float64(len(c.scratch)) - c.drainMean) / 8
}

// Poll drains every frame that is immediately available, returning the
// decoded messages (nil if none). The returned slice is reused by the
// next Poll/Wait call. Single consumer.
func (c *Comm) Poll() ([]msg.Message, error) {
	c.resetScratch()
	for {
		f, ok, err := c.tr.TryRecv()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		c.scratch, err = c.decode(c.scratch, f)
		if err != nil {
			return nil, err
		}
	}
	if len(c.scratch) == 0 {
		return nil, nil
	}
	c.noteDrain()
	return c.scratch, nil
}

// Wait blocks for at least one frame, then also drains whatever else is
// immediately available, returning the decoded messages. The returned
// slice is reused by the next Poll/Wait call. Single consumer.
func (c *Comm) Wait() ([]msg.Message, error) {
	f, err := c.tr.Recv()
	if err != nil {
		return nil, err
	}
	c.resetScratch()
	c.scratch, err = c.decode(c.scratch, f)
	if err != nil {
		return nil, err
	}
	for {
		f, ok, err := c.tr.TryRecv()
		if err != nil {
			return nil, err
		}
		if !ok {
			c.noteDrain()
			return c.scratch, nil
		}
		c.scratch, err = c.decode(c.scratch, f)
		if err != nil {
			return nil, err
		}
	}
}

// Close closes the underlying transport.
func (c *Comm) Close() error { return c.tr.Close() }
