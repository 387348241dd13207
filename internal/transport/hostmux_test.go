package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/msg"
)

// recordingHandler collects deliveries for one node.
type recordingHandler struct {
	mu   sync.Mutex
	got  []msg.Message
	from []NodeID
}

func (h *recordingHandler) HandleMessage(from NodeID, m msg.Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.got = append(h.got, m)
	h.from = append(h.from, from)
}

func (h *recordingHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.got)
}

// waitDeadline polls until cond holds or the deadline expires.
func waitDeadline(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHostMuxOneListenerAndLinkPerHostPair is the co-hosting regression
// test: many nodes per host must share ONE listener per host and ONE
// outbound link per ordered host pair, no matter how many node pairs
// converse. Before the mux, each Register opened its own loopback
// listener and each (from,to) pair dialed its own connection.
func TestHostMuxOneListenerAndLinkPerHostPair(t *testing.T) {
	const perHost = 8
	hostA, hostB := NodeID(1001), NodeID(1002)
	ta := NewTCP()
	tb := NewTCP()
	defer ta.Close()
	defer tb.Close()

	if err := ta.ListenHost(hostA, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := tb.ListenHost(hostB, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Nodes 0..7 live on host A, 8..15 on host B; both sides share one
	// placement resolver carrying the full assignment.
	sp := StaticPlacement{
		Hosts: map[NodeID]NodeID{},
		Addrs: map[NodeID]string{hostA: ta.HostAddr(hostA), hostB: tb.HostAddr(hostB)},
	}
	for i := 0; i < 2*perHost; i++ {
		host := hostA
		if i >= perHost {
			host = hostB
		}
		sp.Hosts[NodeID(i)] = host
	}
	ta.SetResolver(sp)
	tb.SetResolver(sp)
	handlers := make(map[NodeID]*recordingHandler)
	for i := 0; i < 2*perHost; i++ {
		n := NodeID(i)
		h := &recordingHandler{}
		handlers[n] = h
		if sp.Hosts[n] == hostA {
			ta.Register(n, h)
		} else {
			tb.Register(n, h)
		}
	}

	if got := ta.ListenerCount(); got != 1 {
		t.Fatalf("host A listeners = %d, want 1 (per-node listeners leaked)", got)
	}
	if got := tb.ListenerCount(); got != 1 {
		t.Fatalf("host B listeners = %d, want 1", got)
	}

	// Full bipartite traffic: every A node sends to every B node and
	// vice versa.
	for i := 0; i < perHost; i++ {
		for j := perHost; j < 2*perHost; j++ {
			ta.Send(NodeID(i), NodeID(j), msg.Request{})
			tb.Send(NodeID(j), NodeID(i), msg.Reply{})
		}
	}
	for i := 0; i < 2*perHost; i++ {
		n := NodeID(i)
		waitDeadline(t, 5*time.Second, func() bool { return handlers[n].count() == perHost }, fmt.Sprintf("node %d deliveries", n))
	}

	if got := ta.LinkCount(); got != 1 {
		t.Fatalf("host A outbound links = %d, want 1 (all %d node pairs must share the host link)", got, perHost*perHost)
	}
	if got := tb.LinkCount(); got != 1 {
		t.Fatalf("host B outbound links = %d, want 1", got)
	}
}

// TestHostMuxPerPairFIFO checks that multiplexing many node pairs onto
// one host stream preserves the per-ordered-pair FIFO contract the
// proofs require: each receiver must observe its senders' probes in
// increasing per-pair order even though all pairs interleave on one
// sequence space.
func TestHostMuxPerPairFIFO(t *testing.T) {
	const senders, receivers, perPair = 4, 4, 200
	hostA, hostB := NodeID(2001), NodeID(2002)
	ta := NewTCP()
	tb := NewTCP()
	defer ta.Close()
	defer tb.Close()

	if err := ta.ListenHost(hostA, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := tb.ListenHost(hostB, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	sp := StaticPlacement{
		Hosts: map[NodeID]NodeID{},
		Addrs: map[NodeID]string{hostA: ta.HostAddr(hostA), hostB: tb.HostAddr(hostB)},
	}
	for r := 0; r < receivers; r++ {
		sp.Hosts[NodeID(100+r)] = hostB
	}
	for s := 0; s < senders; s++ {
		sp.Hosts[NodeID(s)] = hostA
	}
	ta.SetResolver(sp)
	tb.SetResolver(sp)

	type rec struct {
		mu   sync.Mutex
		seen map[NodeID][]int
	}
	recs := make(map[NodeID]*rec)
	for r := 0; r < receivers; r++ {
		n := NodeID(100 + r)
		rc := &rec{seen: make(map[NodeID][]int)}
		recs[n] = rc
		tb.Register(n, HandlerFunc(func(from NodeID, m msg.Message) {
			rc.mu.Lock()
			rc.seen[from] = append(rc.seen[from], int(msg.Deref(m).(msg.Probe).Tag.N))
			rc.mu.Unlock()
		}))
	}
	for s := 0; s < senders; s++ {
		ta.Register(NodeID(s), HandlerFunc(func(NodeID, msg.Message) {}))
	}

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 1; k <= perPair; k++ {
				for r := 0; r < receivers; r++ {
					ta.Send(NodeID(s), NodeID(100+r), msg.Probe{Tag: id.Tag{Initiator: 1, N: uint64(k)}})
				}
			}
		}(s)
	}
	wg.Wait()

	for r := 0; r < receivers; r++ {
		n := NodeID(100 + r)
		rc := recs[n]
		waitDeadline(t, 10*time.Second, func() bool {
			rc.mu.Lock()
			defer rc.mu.Unlock()
			total := 0
			for _, s := range rc.seen {
				total += len(s)
			}
			return total == senders*perPair
		}, fmt.Sprintf("receiver %d ingress", n))
		rc.mu.Lock()
		for from, ns := range rc.seen {
			for i := 1; i < len(ns); i++ {
				if ns[i] != ns[i-1]+1 {
					rc.mu.Unlock()
					t.Fatalf("pair %d->%d reordered on the mux: %d after %d", from, n, ns[i], ns[i-1])
				}
			}
		}
		rc.mu.Unlock()
	}
}

// TestHostMuxRejectsUnplacedNodes pins what a resolver's silence
// means: a node it does not place has no host, so registering it is a
// programming error and a frame for it is reported and dropped at once
// — no per-node listener, and no link that could never dial.
func TestHostMuxRejectsUnplacedNodes(t *testing.T) {
	host := NodeID(3001)
	var mu sync.Mutex
	var errs []error
	tr := NewTCPWithOptions(TCPOptions{OnError: func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}})
	defer tr.Close()
	if err := tr.ListenHost(host, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	tr.SetResolver(StaticPlacement{
		Hosts: map[NodeID]NodeID{10: host}, // node 20 unplaced
		Addrs: map[NodeID]string{host: tr.HostAddr(host)},
	})
	tr.Register(10, &recordingHandler{})

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Register of an unplaced node did not panic")
			}
		}()
		tr.Register(20, &recordingHandler{})
	}()
	if got := tr.ListenerCount(); got != 1 {
		t.Fatalf("listeners = %d, want 1 (the host's)", got)
	}

	tr.Send(10, 20, msg.Request{})
	mu.Lock()
	n := len(errs)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("send to an unplaced node reported %d errors, want 1", n)
	}
	if got := tr.LinkCount(); got != 0 {
		t.Fatalf("links = %d, want 0 (no link toward an unplaced node)", got)
	}
}

// TestHostMuxRegisterRemoteAssignmentPanics pins the misconfiguration
// behaviour: locally registering a node placed on a host with no local
// listener is a programming error, not silent misrouting.
func TestHostMuxRegisterRemoteAssignmentPanics(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	// Host 4001 never listens locally.
	tr.SetResolver(StaticPlacement{Hosts: map[NodeID]NodeID{5: 4001}})
	defer func() {
		if recover() == nil {
			t.Fatal("Register of a remotely-assigned node did not panic")
		}
	}()
	tr.Register(5, &recordingHandler{})
}
