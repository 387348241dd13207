package transport_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// probeSeq builds a Probe whose tag encodes a sequence number, so
// receivers can check ordering.
func probeSeq(n uint64) msg.Probe {
	return msg.Probe{Tag: id.Tag{Initiator: 0, N: n}}
}

// collector records received sequence numbers per sender.
type collector struct {
	mu   sync.Mutex
	seqs map[transport.NodeID][]uint64
	done chan struct{}
	want int
	got  int
}

func newCollector(want int) *collector {
	return &collector{seqs: make(map[transport.NodeID][]uint64), done: make(chan struct{}), want: want}
}

func (c *collector) HandleMessage(from transport.NodeID, m msg.Message) {
	p, ok := msg.Deref(m).(msg.Probe) // TCP delivers pooled pointer forms
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seqs[from] = append(c.seqs[from], p.Tag.N)
	c.got++
	if c.got == c.want {
		close(c.done)
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.got
}

func (c *collector) checkFIFO(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for from, seqs := range c.seqs {
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("from %d: out of order at %d: %v", from, i, seqs)
			}
		}
	}
}

func TestSimNetFIFOUnderRandomLatency(t *testing.T) {
	sched := sim.New(3)
	net := transport.NewSimNet(sched, transport.UniformLatency{Min: 1, Max: 1000 * sim.Microsecond})
	checker := trace.NewFIFOChecker(func(s string) { t.Error("fifo violation:", s) })
	net.Observe(checker)
	const per = 200
	col := newCollector(3 * per)
	net.Register(9, col)
	for _, src := range []transport.NodeID{1, 2, 3} {
		net.Register(src, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	}
	for i := 1; i <= per; i++ {
		for _, src := range []transport.NodeID{1, 2, 3} {
			net.Send(src, 9, probeSeq(uint64(i)))
		}
	}
	sched.Run()
	col.checkFIFO(t)
	if u := checker.Undelivered(); u != 0 {
		t.Fatalf("%d messages lost", u)
	}
	if net.InFlight() != 0 {
		t.Fatalf("in-flight = %d after drain", net.InFlight())
	}
}

func TestTCPFIFOAndRoundTrip(t *testing.T) {
	net := transport.NewTCP()
	defer net.Close()
	const per = 300
	col := newCollector(2 * per)
	net.Register(9, col)
	net.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	net.Register(2, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	var wg sync.WaitGroup
	for _, src := range []transport.NodeID{1, 2} {
		src := src
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				net.Send(src, 9, probeSeq(uint64(i)))
			}
		}()
	}
	wg.Wait()
	<-col.done
	col.checkFIFO(t)
}

func TestTCPCarriesEveryMessageKind(t *testing.T) {
	net := transport.NewTCP()
	defer net.Close()
	kinds := []msg.Message{
		msg.Request{},
		msg.Reply{},
		msg.Probe{Tag: id.Tag{Initiator: 3, N: 9}},
		msg.WFGD{Edges: []id.Edge{{From: 1, To: 2}, {From: 2, To: 3}}},
		msg.CtrlAcquire{Txn: 4, Resource: 5, Mode: msg.LockWrite, Inc: 2},
		msg.CtrlGranted{Txn: 4, Resource: 5, Inc: 2},
		msg.CtrlRelease{Txn: 4, Resource: 5, Inc: 2},
		msg.CtrlProbe{Tag: id.CtrlTag{Initiator: 1, N: 7}, Edge: id.AgentEdge{
			From: id.Agent{Txn: 4, Site: 0}, To: id.Agent{Txn: 4, Site: 1}}},
		msg.CtrlAbort{Txn: 4},
		msg.BaselineReport{Site: 2, Edges: []id.AgentEdge{{From: id.Agent{Txn: 1, Site: 2}, To: id.Agent{Txn: 2, Site: 2}}}},
		msg.BaselineDecision{Deadlocked: []id.Txn{1, 2}},
	}
	type rcv struct {
		m msg.Message
	}
	got := make(chan rcv, len(kinds))
	net.Register(1, transport.HandlerFunc(func(_ transport.NodeID, m msg.Message) {
		// Deref before retaining: pooled pointer forms are recycled as
		// soon as this handler returns.
		got <- rcv{m: msg.Deref(m)}
	}))
	net.Register(0, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	for _, m := range kinds {
		net.Send(0, 1, m)
	}
	for i, want := range kinds {
		r := <-got
		if r.m.Kind() != want.Kind() {
			t.Fatalf("message %d: kind %v, want %v", i, r.m.Kind(), want.Kind())
		}
		if fmt.Sprintf("%+v", r.m) != fmt.Sprintf("%+v", want) {
			t.Fatalf("message %d: %+v != %+v", i, r.m, want)
		}
	}
}

func TestLatencyModels(t *testing.T) {
	sched := sim.New(11)
	rng := sched.Rand()
	fixed := transport.FixedLatency(42)
	for i := 0; i < 10; i++ {
		if d := fixed.Sample(rng); d != 42 {
			t.Fatalf("fixed latency = %d", d)
		}
	}
	uni := transport.UniformLatency{Min: 10, Max: 20}
	for i := 0; i < 1000; i++ {
		if d := uni.Sample(rng); d < 10 || d > 20 {
			t.Fatalf("uniform latency %d out of range", d)
		}
	}
	// Degenerate uniform.
	deg := transport.UniformLatency{Min: 7, Max: 7}
	if d := deg.Sample(rng); d != 7 {
		t.Fatalf("degenerate uniform = %d", d)
	}
	exp := transport.ExponentialLatency{Mean: 100}
	for i := 0; i < 1000; i++ {
		d := exp.Sample(rng)
		if d < 1 || d > 10000 {
			t.Fatalf("exponential latency %d out of [1, 100*mean]", d)
		}
	}
}

func TestSimNetPanicsOnUnregisteredDelivery(t *testing.T) {
	sched := sim.New(1)
	net := transport.NewSimNet(sched, nil)
	net.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	net.Send(1, 2, msg.Request{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on delivery to unregistered node")
		}
	}()
	sched.Run()
}
