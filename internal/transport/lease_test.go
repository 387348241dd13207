package transport_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/transport"
)

// eventLog collects connection-lifecycle events concurrently and
// counts them by kind.
type eventLog struct {
	mu     sync.Mutex
	events []transport.ConnEvent
}

func (l *eventLog) add(ev transport.ConnEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

func (l *eventLog) count(kind transport.ConnEventKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestTCPAckPrunesReplayBuffer pins the replay-buffer memory bound:
// frames the peer has acknowledged delivering must be released, so
// after the ack exchange settles the history holds only unacked frames
// — and with the lease heartbeat soliciting acks for the tail, it
// drains to zero. Before the ack protocol the buffer retained every
// frame the link ever wrote.
func TestTCPAckPrunesReplayBuffer(t *testing.T) {
	var errs errList
	opts := fastRetry(&errs)
	opts.LeaseInterval = 20 * time.Millisecond
	net_ := transport.NewTCPWithOptions(opts)
	defer net_.Close()

	const n = 200 // several ack strides worth of traffic
	col := newCollector(n)
	net_.Register(9, col)
	net_.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	for i := 1; i <= n; i++ {
		net_.Send(1, 9, probeSeq(uint64(i)))
	}
	select {
	case <-col.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("frames not delivered: got %d", col.count())
	}
	col.checkFIFO(t)

	// Stride acks prune the bulk; the ping-solicited ack collects the
	// tail. The bound under test: history length <= unacked frames, and
	// everything here has been delivered.
	waitFor(t, 10*time.Second, func() bool { return net_.ReplayBufferLen(1, 9) == 0 })

	st := net_.Stats()
	if st.FramesPruned < n {
		t.Fatalf("expected all %d frames pruned eventually, stats %+v", n, st)
	}
	if st.AcksReceived == 0 || st.AcksSent == 0 {
		t.Fatalf("ack exchange missing from stats: %+v", st)
	}
	if st.HeartbeatsSent == 0 {
		t.Fatalf("lease heartbeat never sent: %+v", st)
	}
}

// TestTCPLeaseDetectsPeerDownAndUp drives the failure detector through
// a full outage: kill the receiving transport (its listener, inbox and
// incarnation die), watch the lease expire into a single ConnPeerDown,
// restart the receiver on a fresh port, and watch the first
// acknowledgement of the new incarnation flip the link back up.
func TestTCPLeaseDetectsPeerDownAndUp(t *testing.T) {
	var errs errList
	var log eventLog
	opts := fastRetry(&errs)
	opts.LeaseInterval = 25 * time.Millisecond
	opts.LeaseMisses = 2
	opts.OnConnEvent = log.add
	sender := transport.NewTCPWithOptions(opts)
	defer sender.Close()
	sender.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))

	receiver := transport.NewTCPWithOptions(fastRetry(&errs))
	col := newCollector(1)
	receiver.Register(9, col)
	sender.SetPeer(9, receiver.HostAddr(9))

	sender.Send(1, 9, probeSeq(1))
	select {
	case <-col.done:
	case <-time.After(10 * time.Second):
		t.Fatal("frame not delivered before the outage")
	}

	// Kill the receiver: acks stop, the lease must expire exactly once.
	receiver.Close()
	waitFor(t, 10*time.Second, func() bool { return log.count(transport.ConnPeerDown) >= 1 })

	// Restart on a fresh port with a fresh incarnation; the next ack
	// must declare the peer up again.
	restarted := transport.NewTCPWithOptions(fastRetry(&errs))
	defer restarted.Close()
	restarted.Register(9, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	sender.SetPeer(9, restarted.HostAddr(9))
	waitFor(t, 10*time.Second, func() bool { return log.count(transport.ConnPeerUp) >= 1 })

	if down := log.count(transport.ConnPeerDown); down != 1 {
		t.Fatalf("lease expiry fired %d ConnPeerDown events, want exactly 1", down)
	}
	st := sender.Stats()
	if st.PeerDowns != 1 || st.PeerUps < 1 {
		t.Fatalf("peer-liveness counters off: %+v", st)
	}
}

// TestTCPDrainFlushesQueuedFrames checks the graceful-shutdown hook:
// Drain returns true once accepted frames have reached the wire, and
// times out (false) while a link still holds frames it cannot deliver.
func TestTCPDrainFlushesQueuedFrames(t *testing.T) {
	net_ := transport.NewTCPWithOptions(fastRetry(nil))
	defer net_.Close()
	const n = 50
	col := newCollector(n)
	net_.Register(9, col)
	net_.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	for i := 1; i <= n; i++ {
		net_.Send(1, 9, probeSeq(uint64(i)))
	}
	if !net_.Drain(10 * time.Second) {
		t.Fatal("drain timed out with a reachable peer")
	}
	select {
	case <-col.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("drained frames not delivered: got %d", col.count())
	}

	// A frame toward a peer that never appears keeps the transport
	// undrained: the frame may not be dropped (P4), so Drain must
	// report the truth instead of pretending.
	net_.Send(1, 7, probeSeq(1))
	if net_.Drain(150 * time.Millisecond) {
		t.Fatal("drain claimed success with an undeliverable frame queued")
	}
}
