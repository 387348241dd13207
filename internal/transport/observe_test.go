package transport_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/transport"
)

// TestObserveAttachedMidStream: an observer attached to a TCP transport
// after a host stream into an engine Host has delivered its first frame
// sees every later delivery on that stream. Every resequenced frame
// reaches the Host through the inbox's hand-off, where observers fire.
func TestObserveAttachedMidStream(t *testing.T) {
	const later = 200
	tcpA, tcpB := transport.NewTCP(), transport.NewTCP()
	defer tcpA.Close()
	defer tcpB.Close()
	if err := tcpA.ListenHost(1, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := tcpB.ListenHost(2, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	sp := transport.StaticPlacement{
		Hosts: map[transport.NodeID]transport.NodeID{10: 1, 20: 2},
		Addrs: map[transport.NodeID]string{1: tcpA.HostAddr(1), 2: tcpB.HostAddr(2)},
	}
	tcpA.SetResolver(sp)
	tcpB.SetResolver(sp)
	hostA := engine.NewHost(engine.Options{Transport: tcpA, HostID: 1})
	defer hostA.Close()
	hostB := engine.NewHost(engine.Options{Shards: 2, Transport: tcpB, HostID: 2})
	defer hostB.Close()
	hostA.Register(10, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	var stepped atomic.Int64
	hostB.Register(20, transport.HandlerFunc(func(transport.NodeID, msg.Message) { stepped.Add(1) }))

	probe := func(n uint64) msg.Message { return msg.Probe{Tag: id.Tag{Initiator: 10, N: n}} }
	hostA.Send(10, 20, probe(1))
	pollUntil(t, "first delivery", func() bool { return stepped.Load() == 1 })

	obs := metrics.NewCounters()
	tcpB.Observe(obs)
	for n := uint64(2); n <= later+1; n++ {
		hostA.Send(10, 20, probe(n))
	}
	pollUntil(t, "later deliveries", func() bool { return stepped.Load() == later+1 })
	// OnDeliver fires before the shim enqueues the frame on its shard,
	// so every stepped frame has already been observed.
	if got := obs.TotalDelivered(); got != later {
		t.Fatalf("observer saw %d deliveries, want %d: frames bypassed it", got, later)
	}
	if st := hostB.Stats(); st.RemoteRecvs != later+1 {
		t.Fatalf("RemoteRecvs = %d, want %d", st.RemoteRecvs, later+1)
	}
}
