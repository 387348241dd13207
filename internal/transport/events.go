package transport

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/msg"
)

// ConnEventKind classifies a connection-lifecycle event on the TCP
// transport.
type ConnEventKind int

// Connection-lifecycle event kinds.
const (
	// ConnConnected: an outbound connection for the link was
	// established for the first time.
	ConnConnected ConnEventKind = iota + 1
	// ConnReconnected: an outbound connection was re-established after
	// a failure; the replay buffer was retransmitted.
	ConnReconnected
	// ConnDialRetry: one dial attempt failed and will be retried after
	// backoff.
	ConnDialRetry
	// ConnDialDeadline: dial attempts have failed for longer than the
	// configured DialTimeout; the failure is surfaced through OnError
	// but retries continue (giving up would silently break P4).
	ConnDialDeadline
	// ConnWriteError: a write on an established connection failed; the
	// connection is torn down and re-dialed.
	ConnWriteError
	// ConnReadError: an inbound connection failed mid-stream (peer
	// crash, TCP reset); only that connection is closed.
	ConnReadError
	// ConnPeerClosed: the remote end closed an outbound connection
	// (observed by the link's peer watcher); the link re-dials when
	// there is traffic or history to replay.
	ConnPeerClosed
	// ConnPeerDown: the link's lease on the peer expired — LeaseMisses
	// consecutive lease intervals passed without an acknowledgement, so
	// the peer is presumed crashed (or unreachable, which the lease
	// cannot distinguish; see DESIGN.md §6). Queued frames are retained
	// and retried regardless: the lease is a liveness verdict for the
	// layer above, never a license to drop traffic.
	ConnPeerDown
	// ConnPeerUp: a peer previously declared down acknowledged again,
	// or the peer's inbox incarnation changed — it restarted and lost
	// its protocol state. Inc carries the incarnation observed; the
	// layer above uses the event to re-announce its wait edges.
	ConnPeerUp
)

var connEventNames = map[ConnEventKind]string{
	ConnConnected:    "connected",
	ConnReconnected:  "reconnected",
	ConnDialRetry:    "dial-retry",
	ConnDialDeadline: "dial-deadline",
	ConnWriteError:   "write-error",
	ConnReadError:    "read-error",
	ConnPeerClosed:   "peer-closed",
	ConnPeerDown:     "peer-down",
	ConnPeerUp:       "peer-up",
}

// String returns the lower-case name of the kind.
func (k ConnEventKind) String() string {
	if s, ok := connEventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("conn-event(%d)", int(k))
}

// ConnEvent is one connection-lifecycle event, reported through
// TCPOptions.OnConnEvent (the trace package records them).
type ConnEvent struct {
	Kind ConnEventKind
	// From and To identify the link. Read-side events know only the
	// local node; From is 0 there unless the stream identified itself.
	From, To NodeID
	// Addr is the remote address involved, when known.
	Addr string
	// Attempt counts dial attempts within the current connect cycle.
	Attempt int
	// Inc is the peer inbox incarnation observed on a ConnPeerUp event
	// (nonzero only there).
	Inc uint64
	// Err describes the failure for error events.
	Err string
}

// String renders the event compactly.
func (e ConnEvent) String() string {
	s := fmt.Sprintf("%v %d->%d", e.Kind, e.From, e.To)
	if e.Addr != "" {
		s += " " + e.Addr
	}
	if e.Attempt > 0 {
		s += fmt.Sprintf(" attempt=%d", e.Attempt)
	}
	if e.Inc != 0 {
		s += fmt.Sprintf(" inc=%x", e.Inc)
	}
	if e.Err != "" {
		s += ": " + e.Err
	}
	return s
}

// SeqObserver is an optional extension of Observer: an observer that
// also implements it receives the transport-level sequencing of each
// delivered frame (pair epoch and 1-based sequence number). Only
// sequenced transports (TCP) invoke it; the checker in internal/trace
// uses it to verify the reconnect protocol delivers every pair's
// stream gapless and in order.
type SeqObserver interface {
	OnSequencedDeliver(from, to NodeID, epoch, seq uint64, m msg.Message)
}

// TCPOptions tunes the TCP transport's failure handling. The zero
// value selects the defaults noted on each field.
type TCPOptions struct {
	// DialTimeout bounds how long a connect cycle retries silently.
	// Once dial attempts for a link have failed for this long, the
	// failure is surfaced through OnError (and a ConnDialDeadline
	// event); retries continue at RetryMax intervals, because dropping
	// queued frames would silently violate the no-loss axiom P4.
	// Default 15s.
	DialTimeout time.Duration
	// RetryBase is the initial dial backoff; it doubles per failed
	// attempt. Default 25ms.
	RetryBase time.Duration
	// RetryMax caps the dial backoff. Default 1s.
	RetryMax time.Duration
	// OnError receives transport failures (dial deadlines, write
	// errors, read errors) that previously panicked. It may be called
	// concurrently from several link goroutines. nil ignores errors.
	OnError func(error)
	// OnConnEvent receives connection-lifecycle events. nil ignores
	// them.
	OnConnEvent func(ConnEvent)
	// MaxBatch caps how many queued envelopes a link's sender coalesces
	// into one gathered write. 1 restores per-frame
	// flushing; batching is safe across connection failures because the
	// reconnect protocol replays written frames and receivers dedup by
	// sequence number. Default 64.
	MaxBatch int
	// LeaseInterval, when > 0, arms the lease-based failure detector on
	// every outbound link: the link sends a lightweight ping control
	// frame on the established connection once per interval (piggybacked
	// on the existing envelope stream — no extra connection), and the
	// receiver answers each ping, plus periodic data deliveries, with a
	// cumulative acknowledgement. A link that sees no acknowledgement
	// for LeaseInterval × LeaseMisses declares the peer down
	// (ConnPeerDown); the first acknowledgement after that declares it
	// up again (ConnPeerUp). The detector is deliberately a *lease*, not
	// an oracle: it cannot distinguish a crashed peer from a partitioned
	// one, so the layer above must treat peer-down as "aborted wait",
	// never as "safe to forget" — the transport itself keeps retrying
	// and never drops frames. Default 0 (disabled).
	LeaseInterval time.Duration
	// LeaseMisses is how many consecutive lease intervals may pass
	// without an acknowledgement before the peer is declared down.
	// Default 3 (when LeaseInterval is set).
	LeaseMisses int
	// MaxHeldPerStream caps how many out-of-order frames the receiver's
	// resequencer parks per inbound stream while waiting for a gap to
	// fill. Legitimate reconnects need only the frames written on
	// overlapping connections (bounded by the sender's batch size); a
	// buggy or hostile sender jumping far ahead in sequence space could
	// otherwise pin unbounded memory. Frames beyond the cap are dropped
	// and counted (TCPStats.HeldFramesDropped) — safe, because the
	// sender retains them in its replay buffer until acknowledged and
	// the cumulative ack never covers a dropped frame. Default 4096.
	MaxHeldPerStream int
}

// withDefaults fills unset options.
func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 15 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.LeaseInterval > 0 && o.LeaseMisses <= 0 {
		o.LeaseMisses = 3
	}
	if o.MaxHeldPerStream <= 0 {
		o.MaxHeldPerStream = 4096
	}
	return o
}

// TCPStats is a snapshot of the transport's failure-handling counters.
type TCPStats struct {
	// Dials counts dial attempts; DialRetries the failed ones.
	Dials       int64
	DialRetries int64
	// Connects counts established outbound connections; Reconnects the
	// subset that replaced a failed connection.
	Connects   int64
	Reconnects int64
	// DialDeadlines counts connect cycles that exceeded DialTimeout.
	DialDeadlines int64
	// WriteErrors and ReadErrors count failures on established
	// connections.
	WriteErrors int64
	ReadErrors  int64
	// Replayed counts frames retransmitted after a reconnect;
	// Duplicates counts received frames dropped by the dedup filter;
	// Resequenced counts received frames buffered out of order until
	// their predecessors arrived; HeldFramesDropped counts out-of-order
	// frames discarded because a stream's resequencing buffer was
	// already at TCPOptions.MaxHeldPerStream (the sender's replay
	// re-delivers them, so the drop sheds memory, not frames).
	Replayed          int64
	Duplicates        int64
	Resequenced       int64
	HeldFramesDropped int64
	// HeldFramesPurged counts out-of-order frames discarded because
	// their stream's sender rejoined under a new epoch before the gap
	// ahead of them filled. They are stale by definition — the new
	// epoch restarts the pair's sequence space from 1 — so purging them
	// on the epoch switch frees the resequencing buffer immediately
	// instead of pinning it until MaxHeldPerStream evictions. Kept
	// separate from HeldFramesDropped: a purge is normal rejoin
	// housekeeping, a drop is an overflow worth alarming on.
	HeldFramesPurged int64
	// FramesWritten counts envelopes encoded onto connections; Flushes
	// counts the stream flushes that carried them. With write batching,
	// FramesWritten/Flushes is the achieved coalescing factor.
	// VectorFlushes is the subset of Flushes issued as one gathered
	// writev over the batch's frames — every sender-loop flush; the
	// remainder are reconnect replays, which go through the buffered
	// encoder.
	FramesWritten int64
	Flushes       int64
	VectorFlushes int64
	// MailboxPeak is always 0. It was the deepest a host's dispatch
	// mailbox had been, a queue that has been removed: a reader hands
	// each in-order frame straight to its handler. The field stays
	// because the repo benchmark still reads it
	// (transport.mailbox_peak).
	MailboxPeak int64
	// HeartbeatsSent counts lease ping control frames written; AcksSent
	// and AcksReceived count acknowledgement control frames on the
	// receive and send sides respectively.
	HeartbeatsSent int64
	AcksSent       int64
	AcksReceived   int64
	// FramesPruned counts replay-buffer frames released because the
	// peer acknowledged delivering them — the memory the ack protocol
	// reclaims.
	FramesPruned int64
	// PeerDowns counts lease expiries (peer declared down); PeerUps
	// counts recoveries, including restart detections via a changed
	// inbox incarnation.
	PeerDowns int64
	PeerUps   int64
}

// tcpCounters is the atomic backing store for TCPStats.
type tcpCounters struct {
	dials, dialRetries, connects, reconnects, dialDeadlines atomic.Int64
	writeErrors, readErrors                                 atomic.Int64
	replayed, duplicates, resequenced, heldDropped          atomic.Int64
	heldPurged                                              atomic.Int64
	framesWritten, flushes, vectorFlushes                   atomic.Int64
	heartbeats, acksSent, acksReceived, framesPruned        atomic.Int64
	peerDowns, peerUps                                      atomic.Int64
}

func (c *tcpCounters) snapshot() TCPStats {
	return TCPStats{
		Dials:             c.dials.Load(),
		DialRetries:       c.dialRetries.Load(),
		Connects:          c.connects.Load(),
		Reconnects:        c.reconnects.Load(),
		DialDeadlines:     c.dialDeadlines.Load(),
		WriteErrors:       c.writeErrors.Load(),
		ReadErrors:        c.readErrors.Load(),
		Replayed:          c.replayed.Load(),
		Duplicates:        c.duplicates.Load(),
		Resequenced:       c.resequenced.Load(),
		HeldFramesDropped: c.heldDropped.Load(),
		HeldFramesPurged:  c.heldPurged.Load(),
		FramesWritten:     c.framesWritten.Load(),
		Flushes:           c.flushes.Load(),
		VectorFlushes:     c.vectorFlushes.Load(),
		HeartbeatsSent:    c.heartbeats.Load(),
		AcksSent:          c.acksSent.Load(),
		AcksReceived:      c.acksReceived.Load(),
		FramesPruned:      c.framesPruned.Load(),
		PeerDowns:         c.peerDowns.Load(),
		PeerUps:           c.peerUps.Load(),
	}
}
