package engine

import (
	"sync"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// Wire ingress: every resequenced frame reaches its shard on one route —
// the TCP transport's dispatch mailbox, then the Host's inbound shim,
// then the destination's shard queue. These tests drive that route end
// to end and check per-pair FIFO (axiom P4) across shards.

// probeN builds a probe event carrying n as its ordinal.
func probeN(n uint64) msg.Message { return msg.Probe{Tag: id.Tag{Initiator: 1, N: n}} }

// lockedLogic records per-sender ordinals under a mutex so test
// goroutines may poll while shard loops append.
type lockedLogic struct {
	mu   sync.Mutex
	seen map[transport.NodeID][]uint64
}

func newLockedLogic() *lockedLogic {
	return &lockedLogic{seen: make(map[transport.NodeID][]uint64)}
}

func (l *lockedLogic) HandleMessage(from transport.NodeID, m msg.Message) { l.Step(from, m) }

func (l *lockedLogic) Step(from transport.NodeID, m msg.Message) {
	l.mu.Lock()
	l.seen[from] = append(l.seen[from], msg.Deref(m).(msg.Probe).Tag.N)
	l.mu.Unlock()
}

func (l *lockedLogic) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ns := range l.seen {
		n += len(ns)
	}
	return n
}

func (l *lockedLogic) checkFIFO(t *testing.T, node transport.NodeID) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for from, ns := range l.seen {
		for i := range ns {
			if ns[i] != uint64(i+1) {
				t.Fatalf("pair %d->%d position %d carried %d, want %d", from, node, i, ns[i], i+1)
			}
		}
	}
}

// engineHost builds a Host and registers cleanup (hosts close before
// the transports deferred in the caller).
func engineHost(t *testing.T, o Options) *Host {
	t.Helper()
	h := NewHost(o)
	t.Cleanup(h.Close)
	return h
}

// wirePair builds two Hosts on a multiplexed TCP link: node 10 on host
// A (one shard), receivers 100.. on host B (shardsB shards), so every
// frame 10 sends to a receiver rides the one A→B host stream.
func wirePair(t *testing.T, shardsB, receivers int) (hostA, hostB *Host, logics map[transport.NodeID]*lockedLogic) {
	t.Helper()
	tcpA, tcpB := transport.NewTCP(), transport.NewTCP()
	t.Cleanup(tcpA.Close)
	t.Cleanup(tcpB.Close)
	if err := tcpA.ListenHost(1, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := tcpB.ListenHost(2, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	sp := transport.StaticPlacement{
		Hosts: map[transport.NodeID]transport.NodeID{10: 1},
		Addrs: map[transport.NodeID]string{1: tcpA.HostAddr(1), 2: tcpB.HostAddr(2)},
	}
	for r := 0; r < receivers; r++ {
		sp.Hosts[transport.NodeID(100+r)] = 2
	}
	tcpA.SetResolver(sp)
	tcpB.SetResolver(sp)

	hostA = engineHost(t, Options{Shards: 1, Transport: tcpA})
	hostB = engineHost(t, Options{Shards: shardsB, Transport: tcpB})
	hostA.Register(10, newLockedLogic())
	logics = make(map[transport.NodeID]*lockedLogic)
	for r := 0; r < receivers; r++ {
		node := transport.NodeID(100 + r)
		l := newLockedLogic()
		logics[node] = l
		hostB.Register(node, l)
	}
	return hostA, hostB, logics
}

// awaitTotal polls until the receivers together have stepped want
// frames.
func awaitTotal(t *testing.T, logics map[transport.NodeID]*lockedLogic, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		n := 0
		for _, l := range logics {
			n += l.total()
		}
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d of %d frames delivered", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamSessionCrossShardPerPairFIFO drives one inbound host stream
// at receivers pinned across every shard — interleaved, tens of
// thousands of frames — while unrelated intra-host senders hammer the
// same shard queues. Per-pair FIFO must hold for both kinds of sender,
// and every wire frame must be counted as a remote receive. Run with
// -race this also checks the mailbox-to-shard hand-off.
func TestStreamSessionCrossShardPerPairFIFO(t *testing.T) {
	const receivers, perPair = 8, 5000
	const queueSenders, queuePerPair = 4, 1000
	hostA, hostB, logics := wirePair(t, 4, receivers)

	var wg sync.WaitGroup
	// One wire sender: its frames to all receivers share one ordered
	// host stream, fanning out across shards at the receiving Host.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := uint64(1); k <= perPair; k++ {
			for r := 0; r < receivers; r++ {
				hostA.Send(10, transport.NodeID(100+r), probeN(k))
			}
		}
	}()
	// Concurrent intra-host senders contend for the same shard queues.
	for s := 0; s < queueSenders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := uint64(1); k <= queuePerPair; k++ {
				for r := 0; r < receivers; r++ {
					hostB.Send(transport.NodeID(20+s), transport.NodeID(100+r), probeN(k))
				}
			}
		}(s)
	}
	wg.Wait()
	awaitTotal(t, logics, receivers*(perPair+queueSenders*queuePerPair))
	hostB.Drain()

	for node, l := range logics {
		if got := l.total(); got != perPair+queueSenders*queuePerPair {
			t.Fatalf("receiver %d saw %d frames, want %d", node, got, perPair+queueSenders*queuePerPair)
		}
		l.checkFIFO(t, node)
	}
	if want := uint64(receivers * perPair); hostB.Stats().RemoteRecvs != want {
		t.Errorf("RemoteRecvs = %d, want %d", hostB.Stats().RemoteRecvs, want)
	}
}

// TestHostRingDeliveryOverTCP is the end-to-end proof on a quiet Host:
// two engine Hosts on a multiplexed TCP link, frames from one sender to
// receivers on two shards. They must arrive in per-pair order, and the
// receiver's RemoteRecvs must count every one of them.
func TestHostRingDeliveryOverTCP(t *testing.T) {
	const receivers, perPair = 4, 2000
	hostA, hostB, logics := wirePair(t, 2, receivers)
	for k := uint64(1); k <= perPair; k++ {
		for r := 0; r < receivers; r++ {
			hostA.Send(10, transport.NodeID(100+r), probeN(k))
		}
	}
	awaitTotal(t, logics, receivers*perPair)
	for node, l := range logics {
		l.checkFIFO(t, node)
	}
	if st := hostB.Stats(); st.RemoteRecvs != uint64(receivers*perPair) {
		t.Errorf("RemoteRecvs = %d, want %d", st.RemoteRecvs, receivers*perPair)
	}
}
