package transport_test

import (
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

func TestFaultyNetReordersKinds(t *testing.T) {
	sched := sim.New(3)
	net := transport.NewFaultyNet(sched, func(k msg.Kind) sim.Duration {
		if k == msg.KindProbe {
			return 1
		}
		return sim.Millisecond
	})
	checker := trace.NewFIFOChecker(nil)
	net.Observe(checker)
	var order []msg.Kind
	net.Register(2, transport.HandlerFunc(func(_ transport.NodeID, m msg.Message) {
		order = append(order, m.Kind())
	}))
	net.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	net.Send(1, 2, msg.Request{})
	net.Send(1, 2, msg.Probe{})
	sched.Run()
	if len(order) != 2 || order[0] != msg.KindProbe {
		t.Fatalf("order = %v, want probe first (overtake)", order)
	}
	if checker.Violations() == 0 {
		t.Fatal("checker missed the overtake")
	}
}

func TestFaultyNetPanicsOnUnregistered(t *testing.T) {
	sched := sim.New(4)
	net := transport.NewFaultyNet(sched, func(msg.Kind) sim.Duration { return 1 })
	net.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	net.Send(1, 9, msg.Request{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sched.Run()
}

// sequencedRecorder reports each delivery's sender and stream sequence
// number.
type sequencedRecorder chan [2]uint64

func (r sequencedRecorder) HandleMessage(from transport.NodeID, _ msg.Message) {
	r <- [2]uint64{uint64(from), 0}
}

func (r sequencedRecorder) HandleSequenced(from transport.NodeID, _ msg.Message, _, seq uint64) {
	r <- [2]uint64{uint64(from), seq}
}

// TestTCPAddrAndSetPeer pins the identity placement: with no resolver,
// node n is host n. Each node opens exactly one listener, its host
// address is recorded, and node 0 — host 0, whose stream is SrcHost 0 —
// reaches a node on another transport once SetPeer names it.
func TestTCPAddrAndSetPeer(t *testing.T) {
	a := transport.NewTCP()
	defer a.Close()
	b := transport.NewTCP()
	defer b.Close()

	got := make(sequencedRecorder, 1)
	a.Register(0, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	b.Register(1, got)
	if addr := a.HostAddr(0); addr == "" {
		t.Fatal("no listen address for host 0")
	}
	if addr := b.HostAddr(1); addr == "" {
		t.Fatal("no listen address for host 1")
	}
	for name, tr := range map[string]*transport.TCP{"a": a, "b": b} {
		if n := tr.ListenerCount(); n != 1 {
			t.Fatalf("transport %s holds %d listeners, want 1", name, n)
		}
	}
	// Cross-transport: a learns node 1's address explicitly — the
	// genuinely distributed configuration.
	a.SetPeer(1, b.HostAddr(1))
	a.Send(0, 1, msg.Probe{})
	select {
	case d := <-got:
		if d != [2]uint64{0, 1} {
			t.Fatalf("delivery (from, seq) = %v, want [0 1]: the first frame of host 0's stream", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frame from node 0 never delivered")
	}

	if err := a.ListenHost(-1, "127.0.0.1:0"); err == nil {
		t.Fatal("ListenHost(-1) succeeded; host ids must be non-negative")
	}
}

// TestTCPListenHostConflict: binding a concrete port another host
// already listens on must fail.
func TestTCPListenHostConflict(t *testing.T) {
	a := transport.NewTCP()
	defer a.Close()
	if err := a.ListenHost(1, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := a.ListenHost(2, a.HostAddr(1)); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
}
