package transport

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
)

// outLink is the sender side of one ordered (from,to) host pair: a
// dedicated goroutine owning the pair's connection, encoder and queue.
// from is the source host, so it also names the link's stream on the
// wire (Envelope.SrcHost).
// Per-link ownership is what keeps one slow or blocked peer (full
// kernel send buffer, unreachable host) from stalling any other link
// in the process — Send only appends to the queue under the link's own
// mutex and returns.
//
// Every frame successfully written is retained in sent, the replay
// buffer: a reconnect retransmits the buffer, the receiver drops what
// it already delivered (by sequence number). The buffer is bounded by
// the acknowledgement protocol: the receiver reports its highest
// contiguously delivered sequence number in CtlAck control frames
// flowing back on the inbound connection, and handleAck releases every
// frame at or below that mark — after an ack exchange the buffer holds
// only unacked frames. A receiver that *restarts* (protocol state
// gone) comes back under a fresh inbox incarnation; handleAck notices
// the change and rebases the link (rebaseLocked) so the restarted peer
// gets every unacknowledged frame under a fresh epoch instead of a
// pruned history it cannot resequence.
type outLink struct {
	t        *TCP
	from, to NodeID
	epoch    uint64

	mu   sync.Mutex
	cond *sync.Cond
	// queue holds frames accepted by Send and not yet written; sent
	// holds frames written on some connection and not yet acknowledged,
	// kept for replay.
	queue []msg.Envelope
	sent  []msg.Envelope
	seq   uint64
	conn  net.Conn
	enc   *msg.Encoder
	// gen counts rebases: the run loop captures it when it copies a
	// batch out for writing and skips its pop/append bookkeeping if a
	// rebase renumbered the queue mid-write.
	gen uint64
	// broken marks the current conn dead (peer closed, forced drop);
	// the run loop tears it down and re-dials.
	broken        bool
	everConnected bool
	closed        bool

	// Lease-based failure-detector state. pingDue asks the run loop to
	// write one CtlPing on the established connection; lastAck is the
	// wall-clock time of the last CtlAck from the peer; peerInc is the
	// peer's inbox incarnation as observed in acks (0 until the first
	// ack); peerDown latches the lease verdict so down/up events fire
	// once per transition.
	pingDue  bool
	lastAck  time.Time
	peerInc  uint64
	peerDown bool
}

// newOutLink creates the link; the caller starts run() (and, when the
// lease detector is armed, leaseLoop()) and owns the t.wg accounting
// for them.
func newOutLink(t *TCP, from, to NodeID) *outLink {
	l := &outLink{t: t, from: from, to: to, epoch: newEpoch(), lastAck: time.Now()}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// entropyRead is the randomness source for newEpoch, injectable so the
// fallback path is testable without breaking the process's entropy.
var entropyRead = crand.Read

// epochFallback is the monotonic counter behind newEpoch's fallback,
// seeded lazily from the wall clock. A bare UnixNano is not enough:
// two links created in the same nanosecond (or after a clock step)
// would share an epoch, and the receiver's resequencer would splice
// their streams together. The atomic increment keeps every fallback
// epoch distinct for the life of the process.
var epochFallback atomic.Uint64

// newEpoch draws a random nonzero sender-incarnation id. On entropy
// failure it falls back to a strictly increasing nonzero counter —
// never zero, never repeating within the process — because a zero or
// stale epoch would alias an existing stream's resequencing state.
func newEpoch() uint64 {
	var b [8]byte
	if _, err := entropyRead(b[:]); err == nil {
		if e := binary.LittleEndian.Uint64(b[:]); e != 0 {
			return e
		}
	}
	epochFallback.CompareAndSwap(0, uint64(time.Now().UnixNano()))
	for {
		if e := epochFallback.Add(1); e != 0 {
			return e
		}
	}
}

// envBatch is a recyclable copy of a run of envelopes: the scratch the
// sender loop and the reconnect replay copy frames into so they can be
// written outside the link lock. Pooled because the sender loop makes
// one copy per flush — at high message rates that was the transport's
// dominant steady-state allocation.
type envBatch struct {
	envs []msg.Envelope
}

var envBatchPool = sync.Pool{New: func() any { return new(envBatch) }}

// copyBatch snapshots src into a pooled batch.
func copyBatch(src []msg.Envelope) *envBatch {
	b := envBatchPool.Get().(*envBatch)
	if cap(b.envs) < len(src) {
		b.envs = make([]msg.Envelope, len(src))
	}
	b.envs = b.envs[:len(src)]
	copy(b.envs, src)
	return b
}

// release zeroes the batch (so the pooled array does not pin message
// payloads) and returns it to the pool.
func (b *envBatch) release() {
	for i := range b.envs {
		b.envs[i] = msg.Envelope{}
	}
	b.envs = b.envs[:0]
	envBatchPool.Put(b)
}

// run is the link's sender loop: wait for work (or a dead connection
// with history to replay), ensure a connection, write the queue head.
// Writes happen outside the lock so Send never blocks behind a slow
// network; only this goroutine mutates conn, enc, the queue head and
// sent, so the unlocked window is safe.
//
// A batch goes out as one gathered write: each frame is appended to its
// own reusable segment and the segments are handed to
// net.Buffers.WriteTo, which on a *net.TCPConn issues a single writev(2)
// for the whole batch — one syscall per flush instead of one buffered
// copy per frame plus a flush write. The segments are owned by this
// goroutine and recycled across flushes, so the path allocates nothing
// in steady state. The replay in install, which is rare, keeps the
// buffered encoder; a write error in either path is handled
// identically, because the replay/dedup protocol never trusts a failed
// flush to have written anything.
func (l *outLink) run() {
	defer l.t.wg.Done()
	var (
		segs [][]byte    // per-frame encode buffers, reused across flushes
		vec  net.Buffers // gather list rebuilt per flush from segs
		// out is the slice header WriteTo consumes: on a *net.TCPConn it
		// advances its receiver past every buffer written, so writing
		// through vec itself would hand it back with no capacity.
		out net.Buffers
	)
	for {
		l.mu.Lock()
		for !l.closed && len(l.queue) == 0 && !(l.broken && len(l.sent) > 0) && !l.pingDue {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		if l.broken && l.conn != nil {
			l.conn.Close()
			l.conn = nil
			l.enc = nil
		}
		l.broken = false
		if l.conn == nil {
			l.mu.Unlock()
			if !l.connect() {
				return // transport closed
			}
			continue
		}
		if len(l.queue) == 0 && !l.pingDue {
			l.mu.Unlock()
			continue
		}
		// Unless a full batch is already queued, yield once before
		// gathering: producers already runnable (the other shards, the
		// inbound readers) append first, so one writev carries more.
		if len(l.queue) < l.t.opts.MaxBatch {
			l.mu.Unlock()
			runtime.Gosched()
			l.mu.Lock()
			if l.closed || l.broken || l.conn == nil {
				l.mu.Unlock()
				continue
			}
		}
		ping := l.pingDue
		l.pingDue = false
		// Coalesce up to MaxBatch queued envelopes into one gathered
		// write. The pooled copy lets Send keep appending while the
		// batch is on the wire, without allocating a fresh slice per
		// flush. A due lease ping rides the same flush; it carries no
		// sequence number, so it costs the stream nothing.
		k := len(l.queue)
		if max := l.t.opts.MaxBatch; k > max {
			k = max
		}
		batch := copyBatch(l.queue[:k])
		gen := l.gen
		enc := l.enc
		conn := l.conn
		epoch := l.epoch
		l.mu.Unlock()

		var err error
		frames := batch.envs
		n := len(frames)
		if ping {
			n++
		}
		for len(segs) < n {
			segs = append(segs, nil)
		}
		vec = vec[:0]
		for i, env := range frames {
			if segs[i], err = enc.AppendFrame(segs[i][:0], env); err != nil {
				break
			}
			vec = append(vec, segs[i])
		}
		if err == nil && ping {
			i := n - 1
			if segs[i], err = enc.AppendFrame(segs[i][:0], msg.Envelope{
				From: int32(l.from), To: int32(l.to), SrcHost: int32(l.from),
				Epoch: epoch, Ctl: msg.CtlPing,
			}); err == nil {
				vec = append(vec, segs[i])
			}
		}
		if err == nil && len(vec) > 0 {
			out = vec
			_, err = out.WriteTo(conn)
		}

		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			batch.release()
			return
		}
		if err != nil {
			if l.conn == conn {
				l.conn.Close()
				l.conn = nil
				l.enc = nil
			}
			l.mu.Unlock()
			batch.release()
			l.t.stats.writeErrors.Add(1)
			l.t.event(ConnEvent{Kind: ConnWriteError, From: l.from, To: l.to, Err: err.Error()})
			l.t.report(fmt.Errorf("tcp: write %d->%d: %w", l.from, l.to, err))
			// The whole batch is unconfirmed (writev may have written
			// part of it): the reconnect replays sent and the run loop
			// then re-batches the still-queued frames; the receiver drops
			// whatever it already saw by sequence number. A swallowed
			// ping is simply lost — the lease loop re-arms it.
			continue
		}
		if l.gen == gen {
			// Pop the batch off the queue, zeroing the vacated tail so the
			// backing array does not pin flushed envelopes.
			rem := copy(l.queue, l.queue[k:])
			for i := rem; i < len(l.queue); i++ {
				l.queue[i] = msg.Envelope{}
			}
			l.queue = l.queue[:rem]
			l.sent = append(l.sent, batch.envs...)
		}
		// else: a rebase renumbered the queue while the batch was on the
		// wire; the written frames stay queued under their new epoch and
		// will be re-sent — the receiver discards the stale-epoch copies.
		l.mu.Unlock()
		batch.release()
		if k > 0 {
			l.t.stats.framesWritten.Add(int64(k))
		}
		if ping {
			l.t.stats.heartbeats.Add(1)
		}
		l.t.stats.flushes.Add(1)
		l.t.stats.vectorFlushes.Add(1)
	}
}

// connect dials the peer with exponential backoff until it succeeds,
// then replays the link's history on the new connection. It returns
// false only when the transport is closing. Failures beyond the
// configured DialTimeout are surfaced once per cycle through OnError;
// retries continue regardless, because abandoning queued frames would
// silently break the no-loss axiom the algorithm assumes.
func (l *outLink) connect() bool {
	o := l.t.opts
	backoff := o.RetryBase
	attemptTimeout := o.RetryMax
	if attemptTimeout < 100*time.Millisecond {
		attemptTimeout = 100 * time.Millisecond
	}
	start := time.Now()
	attempt := 0
	reported := false
	for {
		if l.t.isClosed() {
			return false
		}
		attempt++
		addr, known := l.t.peerAddr(l.to)
		var conn net.Conn
		var err error
		if !known {
			err = fmt.Errorf("no address for node %d", l.to)
		} else {
			l.t.stats.dials.Add(1)
			conn, err = net.DialTimeout("tcp", addr, attemptTimeout)
		}
		if err == nil {
			if l.install(conn, addr, attempt) {
				return true
			}
			// Replay failed; fall through to retry after backoff.
		} else {
			l.t.stats.dialRetries.Add(1)
			l.t.event(ConnEvent{Kind: ConnDialRetry, From: l.from, To: l.to,
				Addr: addr, Attempt: attempt, Err: err.Error()})
			if !reported && time.Since(start) >= o.DialTimeout {
				reported = true
				l.t.stats.dialDeadlines.Add(1)
				l.t.event(ConnEvent{Kind: ConnDialDeadline, From: l.from, To: l.to,
					Addr: addr, Attempt: attempt, Err: err.Error()})
				l.t.report(fmt.Errorf("tcp: dial node %d (%s): still failing after %v (attempt %d): %w",
					l.to, addr, time.Since(start).Round(time.Millisecond), attempt, err))
			}
		}
		select {
		case <-time.After(jitteredDelay(backoff, rand.Float64)):
		case <-l.t.done:
			return false
		}
		if backoff *= 2; backoff > o.RetryMax {
			backoff = o.RetryMax
		}
	}
}

// jitteredDelay spreads one backoff sleep uniformly over [d/2, d].
// Without jitter, every peer of a restarted node retries on the same
// doubling schedule and the reconnect dials arrive as synchronized
// bursts (a thundering herd against a node that is busy rebuilding);
// drawing from the half-open interval keeps the cap — a delay never
// exceeds the nominal backoff — while desynchronizing the herd. rnd is
// injected (returning [0,1)) so tests can pin the bounds.
func jitteredDelay(d time.Duration, rnd func() float64) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rnd()*float64(d-half))
}

// install adopts a freshly dialed connection, starts its peer watcher
// and replays the link's history. It returns false if the replay
// failed (the connection is torn down and the caller retries).
func (l *outLink) install(conn net.Conn, addr string, attempt int) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		conn.Close()
		return false
	}
	replay := copyBatch(l.sent)
	defer replay.release()
	enc := msg.NewEncoder(conn)
	l.conn = conn
	l.enc = enc
	l.broken = false
	first := !l.everConnected
	l.everConnected = true
	l.mu.Unlock()

	l.t.stats.connects.Add(1)
	kind := ConnConnected
	if !first {
		l.t.stats.reconnects.Add(1)
		kind = ConnReconnected
	}
	l.t.event(ConnEvent{Kind: kind, From: l.from, To: l.to, Addr: addr, Attempt: attempt})

	l.t.wg.Add(1)
	go l.watch(conn)

	// The replay is one batch: buffered encodes, single flush.
	writeReplay := func() error {
		for _, env := range replay.envs {
			if err := enc.EncodeBuffered(env); err != nil {
				return err
			}
		}
		return enc.Flush()
	}
	if err := writeReplay(); err != nil {
		l.mu.Lock()
		if l.conn == conn {
			l.conn = nil
			l.enc = nil
		}
		l.mu.Unlock()
		conn.Close()
		if !l.t.isClosed() {
			l.t.stats.writeErrors.Add(1)
			l.t.event(ConnEvent{Kind: ConnWriteError, From: l.from, To: l.to,
				Addr: addr, Err: err.Error()})
		}
		return false
	}
	if len(replay.envs) > 0 {
		l.t.stats.framesWritten.Add(int64(len(replay.envs)))
		l.t.stats.flushes.Add(1)
	}
	l.t.stats.replayed.Add(int64(len(replay.envs)))
	return true
}

// watch reads the connection's return stream until the peer closes it
// (or it fails), then marks the link broken and wakes the run loop.
// The only traffic a peer sends back on an outbound connection is
// CtlAck control frames — cumulative delivery acknowledgements that
// prune the replay buffer and feed the lease detector; anything else
// is ignored. Any read error means the connection is gone. Without the
// watcher, a peer crash would be noticed only at the next write — and
// a kernel buffer can swallow one write to a freshly dead peer without
// an error, losing the frame; marking the link broken forces a
// reconnect that replays it.
func (l *outLink) watch(conn net.Conn) {
	defer l.t.wg.Done()
	dec := msg.NewDecoder(conn)
	for {
		env, err := dec.Decode()
		if err != nil {
			break
		}
		if env.Ctl == msg.CtlAck {
			l.handleAck(env)
		}
	}
	l.mu.Lock()
	if l.conn == conn && !l.closed {
		l.broken = true
		l.cond.Broadcast()
	}
	l.mu.Unlock()
	if !l.t.isClosed() {
		l.t.event(ConnEvent{Kind: ConnPeerClosed, From: l.from, To: l.to,
			Addr: conn.RemoteAddr().String()})
	}
}

// handleAck processes one cumulative acknowledgement from the peer:
// refresh the lease, prune the replay buffer up to the acked sequence
// number, and — when the ack reveals a new peer incarnation (the peer
// restarted and lost its resequencing state) — rebase the link so the
// fresh incarnation receives every unacknowledged frame from sequence
// 1 of a fresh epoch.
func (l *outLink) handleAck(env msg.Envelope) {
	l.t.stats.acksReceived.Add(1)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.lastAck = time.Now()
	if env.Epoch == l.epoch && env.Ack > 0 {
		// sent is ordered by ascending Seq; release the acked prefix,
		// zeroing vacated slots so the array does not pin envelopes.
		cut := 0
		for cut < len(l.sent) && l.sent[cut].Seq <= env.Ack {
			cut++
		}
		if cut > 0 {
			rem := copy(l.sent, l.sent[cut:])
			for i := rem; i < len(l.sent); i++ {
				l.sent[i] = msg.Envelope{}
			}
			l.sent = l.sent[:rem]
			l.t.stats.framesPruned.Add(int64(cut))
		}
	}
	wasDown := l.peerDown
	l.peerDown = false
	restarted := l.peerInc != 0 && env.Inc != 0 && env.Inc != l.peerInc
	if env.Inc != 0 {
		l.peerInc = env.Inc
	}
	if restarted {
		l.rebaseLocked()
	}
	l.mu.Unlock()
	if wasDown || restarted {
		l.t.stats.peerUps.Add(1)
		l.t.event(ConnEvent{Kind: ConnPeerUp, From: l.from, To: l.to, Inc: env.Inc})
	}
}

// rebaseLocked (l.mu held) restarts the link's stream for a fresh peer
// incarnation: every unacknowledged frame — replay buffer first, then
// the unsent queue — is renumbered from sequence 1 under a fresh
// epoch and requeued. The restarted peer's resequencer sees a new
// epoch, expects sequence 1, and receives exactly the frames its
// previous incarnation never acknowledged; without the rebase a pruned
// replay buffer would start at some k > 1 and the fresh incarnation
// would hold the stream forever waiting for the gap.
func (l *outLink) rebaseLocked() {
	merged := append(l.sent, l.queue...)
	l.epoch = newEpoch()
	for i := range merged {
		merged[i].Seq = uint64(i + 1)
		merged[i].Epoch = l.epoch
	}
	l.sent = nil
	l.queue = merged
	l.seq = uint64(len(merged))
	l.gen++
	l.cond.Broadcast()
}

// leaseLoop is the link's failure detector: once per LeaseInterval it
// arms a ping for the run loop and checks how stale the peer's last
// acknowledgement is. LeaseMisses silent intervals declare the peer
// down (ConnPeerDown, once per outage); the next acknowledgement —
// handled in handleAck — declares it up again. Started only when
// TCPOptions.LeaseInterval > 0.
func (l *outLink) leaseLoop() {
	defer l.t.wg.Done()
	interval := l.t.opts.LeaseInterval
	expiry := interval * time.Duration(l.t.opts.LeaseMisses)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-l.t.done:
			return
		case <-tick.C:
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		l.pingDue = true
		l.cond.Broadcast()
		expired := !l.peerDown && time.Since(l.lastAck) > expiry
		if expired {
			l.peerDown = true
		}
		l.mu.Unlock()
		if expired {
			l.t.stats.peerDowns.Add(1)
			l.t.event(ConnEvent{Kind: ConnPeerDown, From: l.from, To: l.to})
		}
	}
}

// breakConn forcibly drops the link's current connection (fault
// injection; see TCP.DropConnections).
func (l *outLink) breakConn() {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.broken = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// close stops the sender loop and closes the connection. Frames still
// queued are dropped — the transport is shutting down.
func (l *outLink) close() {
	l.mu.Lock()
	l.closed = true
	if l.conn != nil {
		l.conn.Close()
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}
