package transport_test

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/transport"
)

// TestLinkFlushAllocatesNothing holds the link's flush path — gather the
// batch, encode each frame into its reused segment, one writev — to no
// allocation in steady state, over a loopback TCP pair with a
// frame per round trip that decodes to a shared value, so nothing but
// the link is measured. net.Buffers.WriteTo consumes the slice it is
// called on, so a link that handed it its own gather list got it back
// with no capacity and paid a growslice on every flush.
func TestLinkFlushAllocatesNothing(t *testing.T) {
	a, b := transport.NewTCP(), transport.NewTCP()
	defer a.Close()
	defer b.Close()
	got := make(chan struct{}, 1)
	b.Register(9, transport.HandlerFunc(func(transport.NodeID, msg.Message) { got <- struct{}{} }))
	a.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	a.SetPeer(9, b.HostAddr(9))
	roundTrip := func() {
		a.Send(1, 9, msg.Reply{})
		<-got
	}
	for i := 0; i < 2000; i++ { // dial, and fill the pools and queues
		roundTrip()
	}
	allocs := testing.AllocsPerRun(2000, roundTrip)
	t.Logf("%v allocs per flushed frame", allocs)
	if allocs != 0 {
		t.Fatalf("%v allocs per flushed frame, want 0", allocs)
	}
	if st := a.Stats(); st.Flushes < 4000 {
		t.Fatalf("%d flushes for 4001 frames sent one at a time", st.Flushes)
	}
}
