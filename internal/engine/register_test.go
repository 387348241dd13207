package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/transport"
)

// TestRegisterCostIsFlat holds a registration to a cost independent of
// how many processes are already hosted: 100 registrations on a Host
// over TCP with 4096 nodes registered allocate within 2× of the same
// with 64 registered. Register used to copy the Host's and the
// transport's whole node directory, so setting up n processes was
// O(n²). A frame sent to the last node registered must still reach it:
// the first read after a registration republishes the snapshot.
func TestRegisterCostIsFlat(t *testing.T) {
	measure := func(already int) uint64 {
		tcp := transport.NewTCP()
		defer tcp.Close()
		if err := tcp.ListenHost(1, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		total := already + 100
		hosts := make(map[transport.NodeID]transport.NodeID, total)
		for n := 0; n < total; n++ {
			hosts[transport.NodeID(n)] = 1
		}
		tcp.SetResolver(transport.StaticPlacement{Hosts: hosts})
		h := NewHost(Options{Shards: 2, Transport: tcp})
		defer h.Close()
		stepped := make(chan struct{}, 1)
		handler := stepLogic(func() { stepped <- struct{}{} })
		for n := 0; n < already; n++ {
			h.Register(transport.NodeID(n), handler)
		}
		h.proc(0) // publish the snapshot the measured registrations start from
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := already; n < total; n++ {
			h.Register(transport.NodeID(n), handler)
		}
		runtime.ReadMemStats(&after)
		h.Send(0, transport.NodeID(total-1), msg.Probe{})
		<-stepped
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := measure(64), measure(4096)
	t.Logf("100 registrations allocate %d B after 64, %d B after 4096", small, large)
	if large > 2*small {
		t.Fatalf("100 registrations allocate %d B after 4096 nodes, more than 2× the %d B after 64", large, small)
	}
}

// TestRegisterRacesTraffic registers receivers on host B while the
// test sends to each one as soon as its Register returns: over the
// wire from host A (B's transport resolves the handler) and intra-host
// on B (B's Host resolves the process). Every frame must be delivered,
// none reported for an unregistered node, and no intra-host send may
// miss the process and fall through to the wire. Run with -race.
func TestRegisterRacesTraffic(t *testing.T) {
	const receivers = 500
	var unregistered atomic.Int64
	tcpA := transport.NewTCP()
	tcpB := transport.NewTCPWithOptions(transport.TCPOptions{OnError: func(error) { unregistered.Add(1) }})
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
	hostA := engineHost(t, Options{Shards: 1, Transport: tcpA})
	hostB := engineHost(t, Options{Shards: 4, Transport: tcpB})
	hostA.Register(10, stepLogic(func() {}))

	var delivered atomic.Int64
	handler := stepLogic(func() { delivered.Add(1) })
	registered := make(chan transport.NodeID, receivers)
	go func() {
		for r := 0; r < receivers; r++ {
			node := transport.NodeID(100 + r)
			hostB.Register(node, handler)
			registered <- node
		}
		close(registered)
	}()
	for node := range registered {
		hostA.Send(10, node, msg.Probe{})
		hostB.Send(node, node, msg.Probe{})
	}
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() < 2*receivers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := delivered.Load(); got != 2*receivers || unregistered.Load() != 0 {
		t.Fatalf("%d of %d frames delivered, %d reported for an unregistered node", got, 2*receivers, unregistered.Load())
	}
	if st := hostB.Stats(); st.RemoteSends != 0 {
		t.Fatalf("%d intra-host sends missed their process and went to the wire", st.RemoteSends)
	}
}
