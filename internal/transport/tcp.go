package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPConfig tunes the failure model of the TCP transport: how long mesh
// establishment may take, how dial retries back off, and how long an
// individual frame write may stall before the connection is declared
// dead. The zero value selects the defaults; use a negative duration to
// disable an individual timeout.
type TCPConfig struct {
	// HandshakeTimeout bounds the entire mesh-establishment phase of
	// NewTCP: listening, accepting every higher rank's connection and
	// hello, and dialing every lower rank. When it expires NewTCP
	// returns an error instead of waiting forever on a peer that died
	// mid-handshake. Default DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration
	// WriteTimeout bounds each frame write on an established
	// connection. A write that stalls longer (peer wedged, network
	// partition) fails the connection, which surfaces as a transport
	// error on the local rank. Default DefaultWriteTimeout; negative
	// disables.
	WriteTimeout time.Duration
	// ReadIdleTimeout, when positive, fails a connection on which no
	// frame has arrived for that long. Disabled by default: engine
	// traffic between a pair of ranks is legitimately bursty (long
	// local-generation stretches send nothing), so only deployments
	// with a known traffic cadence should set it.
	ReadIdleTimeout time.Duration
	// DialBackoffBase is the initial delay between dial attempts while
	// a lower rank's listener comes up; each failure doubles it up to
	// DialBackoffMax (bounded exponential backoff). Defaults
	// DefaultDialBackoffBase / DefaultDialBackoffMax.
	DialBackoffBase time.Duration
	DialBackoffMax  time.Duration
}

// Defaults for TCPConfig fields.
const (
	DefaultHandshakeTimeout = 30 * time.Second
	DefaultWriteTimeout     = time.Minute
	DefaultDialBackoffBase  = 10 * time.Millisecond
	DefaultDialBackoffMax   = 500 * time.Millisecond
)

// withDefaults resolves zero fields to the package defaults and negative
// timeouts to "disabled".
func (c TCPConfig) withDefaults() TCPConfig {
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.DialBackoffBase <= 0 {
		c.DialBackoffBase = DefaultDialBackoffBase
	}
	if c.DialBackoffMax <= 0 {
		c.DialBackoffMax = DefaultDialBackoffMax
	}
	return c
}

// TCP is a full-mesh distributed-memory transport: each pair of ranks
// shares one TCP connection (lower rank listens, higher rank dials),
// frames are length-prefixed, and every connection has a dedicated reader
// goroutine (pumping into the rank's unbounded mailbox) and writer
// goroutine (draining an unbounded outbox), so engine sends never block
// on peer progress — the property the deadlock analysis of Section 3.5.2
// needs from the runtime.
//
// Failure model: mesh establishment is bounded by
// TCPConfig.HandshakeTimeout (a peer dying mid-handshake produces an
// error, not a hang), each frame write by TCPConfig.WriteTimeout, and a
// connection that fails outside a graceful Close latches a
// connection-lost error that subsequent Recv and Send calls return — a
// crashed peer turns into an error on every surviving rank instead of a
// silent stall. Close drains the outbound queues before tearing
// connections down, so frames already accepted by Send still reach the
// wire (bounded by the write timeout).
type TCP struct {
	rank  int
	addrs []string
	cfg   TCPConfig
	mail  *mailbox

	mu       sync.Mutex
	conns    []net.Conn // index by peer rank; nil for self
	outboxes []*mailbox // per-peer outbound frame queues
	closed   bool
	failure  error // first unexpected connection failure; nil if none
	readers  sync.WaitGroup
	writers  sync.WaitGroup
}

// NewTCP creates rank's endpoint of a P-rank mesh with the default
// TCPConfig, where addrs[i] is the listen address of rank i
// (len(addrs) = P). It blocks until connections to all peers are
// established or the handshake deadline expires. All ranks must call
// NewTCP concurrently (they are separate processes in real deployments).
func NewTCP(rank int, addrs []string) (*TCP, error) {
	return NewTCPWithConfig(rank, addrs, TCPConfig{})
}

// NewTCPWithConfig is NewTCP with explicit timeout/backoff tuning.
func NewTCPWithConfig(rank int, addrs []string, cfg TCPConfig) (*TCP, error) {
	cfg = cfg.withDefaults()
	p := len(addrs)
	if p < 1 {
		return nil, fmt.Errorf("transport: empty address list")
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("transport: rank %d outside [0,%d)", rank, p)
	}
	t := &TCP{
		rank:     rank,
		addrs:    addrs,
		cfg:      cfg,
		mail:     newMailbox(),
		conns:    make([]net.Conn, p),
		outboxes: make([]*mailbox, p),
	}
	deadline := time.Now().Add(cfg.HandshakeTimeout)

	// closeAll tears down whatever the partial handshake established.
	closeAll := func() {
		for _, c := range t.conns {
			if c != nil {
				c.Close()
			}
		}
	}

	// Accept connections from all higher ranks. The listener itself
	// carries the handshake deadline, so a higher rank that never
	// arrives (or dies mid-hello) turns into a timeout error here
	// instead of an eternal Accept.
	var ln net.Listener
	var err error
	if rank < p-1 {
		ln, err = net.Listen("tcp", addrs[rank])
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", addrs[rank], err)
		}
		defer ln.Close()
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
	}

	acceptErr := make(chan error, 1)
	go func() {
		for accepted := 0; accepted < p-1-rank; {
			conn, err := ln.Accept()
			if err != nil {
				acceptErr <- fmt.Errorf("transport: accepting peers (%d of %d arrived before the handshake deadline): %w",
					accepted, p-1-rank, err)
				return
			}
			var hdr [4]byte
			conn.SetReadDeadline(deadline)
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				conn.Close()
				acceptErr <- fmt.Errorf("transport: reading peer handshake: %w", err)
				return
			}
			conn.SetReadDeadline(time.Time{})
			from := int(binary.LittleEndian.Uint32(hdr[:]))
			if from <= rank || from >= p {
				conn.Close()
				acceptErr <- fmt.Errorf("transport: bad handshake rank %d", from)
				return
			}
			t.mu.Lock()
			dup := t.conns[from] != nil
			if !dup {
				t.conns[from] = conn
				accepted++
			}
			t.mu.Unlock()
			if dup {
				conn.Close()
				acceptErr <- fmt.Errorf("transport: duplicate handshake from rank %d", from)
				return
			}
		}
		acceptErr <- nil
	}()

	// Dial all lower ranks, retrying with bounded exponential backoff
	// while their listeners come up.
	for peer := 0; peer < rank; peer++ {
		conn, err := dialBackoff(addrs[peer], deadline, cfg)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("transport: dial rank %d at %s: %w", peer, addrs[peer], err)
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(rank))
		conn.SetWriteDeadline(deadline)
		if _, err := conn.Write(hdr[:]); err != nil {
			conn.Close()
			closeAll()
			return nil, fmt.Errorf("transport: handshake to rank %d: %w", peer, err)
		}
		conn.SetWriteDeadline(time.Time{})
		t.mu.Lock()
		t.conns[peer] = conn
		t.mu.Unlock()
	}

	if err := <-acceptErr; err != nil {
		closeAll()
		return nil, err
	}

	// Start per-connection pumps.
	for peer := 0; peer < p; peer++ {
		if peer == rank {
			continue
		}
		t.outboxes[peer] = newMailbox()
		t.readers.Add(1)
		t.writers.Add(1)
		go t.readLoop(peer)
		go t.writeLoop(peer)
	}
	return t, nil
}

// dialBackoff dials addr until it succeeds or the deadline passes,
// doubling the inter-attempt delay from cfg.DialBackoffBase up to
// cfg.DialBackoffMax.
func dialBackoff(addr string, deadline time.Time, cfg TCPConfig) (net.Conn, error) {
	backoff := cfg.DialBackoffBase
	for {
		attempt := time.Until(deadline)
		if attempt <= 0 {
			return nil, fmt.Errorf("handshake deadline expired")
		}
		if attempt > time.Second {
			attempt = time.Second
		}
		conn, err := net.DialTimeout("tcp", addr, attempt)
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("handshake deadline expired: %w", err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > cfg.DialBackoffMax {
			backoff = cfg.DialBackoffMax
		}
	}
}

// isClosed reports whether Close has begun.
func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// fail latches the first unexpected connection failure and wakes any
// blocked Recv by closing the mailbox (frames already queued are still
// delivered first). During a graceful Close connection errors are
// expected and ignored.
func (t *TCP) fail(peer int, err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if t.failure == nil {
		t.failure = fmt.Errorf("transport: connection to rank %d lost: %w", peer, err)
	}
	t.mu.Unlock()
	t.mail.close()
}

// Err returns the latched connection failure, or nil while every peer
// connection is healthy (or after a graceful Close).
func (t *TCP) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failure
}

// tcpReadBufSize sizes each connection's reusable read buffer: large
// enough that a length prefix plus a typical coalesced frame arrive in
// one read syscall.
const tcpReadBufSize = 64 << 10

// A zero-length frame is the goodbye marker: Close writes one on every
// connection after draining the outbound queues, so the peer's reader
// can tell a graceful shutdown (goodbye, then EOF) from a crashed
// process (EOF or reset with no goodbye). Data frames are never empty —
// the communicator only flushes non-empty batches — so the length is
// unambiguous on the wire.

func (t *TCP) readLoop(peer int) {
	defer t.readers.Done()
	// One reusable buffered reader per connection: the length prefix and
	// frame body are read through it, so small frames cost no extra
	// syscalls and the payload buffers come from the frame pool instead
	// of a fresh allocation per frame.
	conn := t.conns[peer]
	br := bufio.NewReaderSize(conn, tcpReadBufSize)
	var hdr [4]byte
	for {
		if t.cfg.ReadIdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(t.cfg.ReadIdleTimeout))
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.fail(peer, err) // no-op if our own Close is in progress
			return
		}
		size := binary.LittleEndian.Uint32(hdr[:])
		if size == 0 {
			return // goodbye marker: peer shut down gracefully
		}
		data := LeaseFrame(int(size))[:size]
		if _, err := io.ReadFull(br, data); err != nil {
			t.fail(peer, err)
			return
		}
		if t.mail.push(Frame{From: peer, Data: data}) != nil {
			return
		}
	}
}

func (t *TCP) writeLoop(peer int) {
	defer t.writers.Done()
	conn := t.conns[peer]
	var hdr [4]byte
	for {
		f, ok, err := t.outboxes[peer].pop(true)
		if err != nil || !ok {
			return
		}
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(f.Data)))
		if t.cfg.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
		}
		if _, err := conn.Write(hdr[:]); err != nil {
			ReleaseFrame(f.Data)
			t.fail(peer, err)
			return
		}
		_, err = conn.Write(f.Data)
		// The bytes are on the wire (or the connection is dead): this
		// side's ownership of the leased buffer ends here.
		ReleaseFrame(f.Data)
		if err != nil {
			t.fail(peer, err)
			return
		}
	}
}

// Rank implements Transport.
func (t *TCP) Rank() int { return t.rank }

// Size implements Transport.
func (t *TCP) Size() int { return len(t.addrs) }

// Send implements Transport. Self-sends loop back through the mailbox.
// After a connection failure has been latched, Send reports it so the
// engine stops generating instead of queueing frames no one will read.
func (t *TCP) Send(to int, data []byte) error {
	if to < 0 || to >= len(t.addrs) {
		return fmt.Errorf("transport: send to rank %d outside [0,%d)", to, len(t.addrs))
	}
	if err := t.Err(); err != nil {
		return err
	}
	if to == t.rank {
		return t.mail.push(Frame{From: t.rank, Data: data})
	}
	return t.outboxes[to].push(Frame{From: t.rank, Data: data})
}

// Recv implements Transport. After a peer connection fails outside a
// graceful Close, the already-received frames drain first and then Recv
// returns the connection-lost error.
func (t *TCP) Recv() (Frame, error) {
	f, ok, err := t.mail.pop(true)
	if err != nil {
		if ferr := t.Err(); ferr != nil {
			return Frame{}, ferr
		}
		return Frame{}, err
	}
	if !ok {
		if ferr := t.Err(); ferr != nil {
			return Frame{}, ferr
		}
		return Frame{}, ErrClosed
	}
	return f, nil
}

// TryRecv implements Transport.
func (t *TCP) TryRecv() (Frame, bool, error) {
	f, ok, err := t.mail.pop(false)
	if err != nil {
		if ferr := t.Err(); ferr != nil {
			return Frame{}, false, ferr
		}
	}
	return f, ok, err
}

// Close implements Transport, running the graceful shutdown sequence:
// outbound queues are closed first and the writer goroutines drain them
// fully (the mailbox delivers queued frames even after close), so frames
// already accepted by Send still reach the wire — each write bounded by
// the configured write timeout. A goodbye marker then tells every peer
// this shutdown is deliberate (so their readers do not report a lost
// connection), and only then are the connections torn down. Callers must
// not Close while peers still expect traffic from this rank: frames a
// peer sends after processing our goodbye fail its connection.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	return t.shutdown()
}

// Abort tears the endpoint down abruptly: no outbox drain, no goodbye
// markers — peers observe exactly what a crashed process looks like on
// the wire (EOF or reset without goodbye) and latch connection-lost
// errors. It exists for fault injection (Chaos's kill switch uses it);
// production shutdown goes through Close.
func (t *TCP) Abort() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()
	for peer, c := range t.conns {
		if c != nil && peer != t.rank {
			c.Close()
		}
	}
	for _, ob := range t.outboxes {
		if ob != nil {
			ob.close()
		}
	}
	t.mail.close()
	t.writers.Wait()
	t.readers.Wait()
}

// shutdown is the graceful half of Close, entered with t.closed set.
func (t *TCP) shutdown() error {
	for _, ob := range t.outboxes {
		if ob != nil {
			ob.close()
		}
	}
	t.writers.Wait()
	var goodbye [4]byte // zero length = goodbye marker
	for peer, c := range t.conns {
		if c == nil || peer == t.rank {
			continue
		}
		if t.cfg.WriteTimeout > 0 {
			c.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
		}
		c.Write(goodbye[:]) // best effort; the peer may already be gone
		c.Close()
	}
	t.mail.close()
	t.readers.Wait()
	return nil
}
