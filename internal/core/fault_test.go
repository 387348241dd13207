package core_test

// Failure-injection tests: the paper's only environmental assumption is
// reliable in-order delivery (§2.4, axiom P4, and P1/P2 which derive
// from it). These tests run the identical scenario over a conforming
// network and over a deliberately non-FIFO one, showing the assumption
// is necessary: when a probe overtakes the request it was sent behind,
// the receiver correctly discards it as non-meaningful (no edge yet)
// and a single probe computation misses a real deadlock.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wfg"
)

// kindDelayNet is a deliberately broken simulated network: each
// message waits a fixed delay for its kind, with no FIFO floor per
// ordered pair, so a fast kind overtakes a slow one on the same link.
// This violates the paper's delivery assumption (and hence axioms
// P1/P2).
type kindDelayNet struct {
	sched    *sim.Scheduler
	delay    func(msg.Kind) sim.Duration
	handlers map[transport.NodeID]transport.Handler
	observer transport.Observer
}

func (n *kindDelayNet) Register(id transport.NodeID, h transport.Handler) { n.handlers[id] = h }

func (n *kindDelayNet) Send(from, to transport.NodeID, m msg.Message) {
	n.observer.OnSend(from, to, m)
	n.sched.After(n.delay(m.Kind()), func() {
		n.observer.OnDeliver(from, to, m)
		n.handlers[to].HandleMessage(from, m)
	})
}

// buildPair returns two manually driven processes on the given
// transport.
func buildPair(t *testing.T, net transport.Transport) (*core.Process, *core.Process) {
	t.Helper()
	mk := func(pid id.Proc) *core.Process {
		p, err := core.NewProcess(core.Config{ID: pid, Transport: net, Policy: core.InitiateManually})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return mk(0), mk(1)
}

func TestProbeOvertakingRequestMissesDeadlock(t *testing.T) {
	// Faulty network: probes fly (1µs), requests crawl (10ms). The
	// probe initiated right after the request overtakes it, violating
	// P1.
	sched := sim.New(1)
	checker := trace.NewFIFOChecker(nil)
	net := &kindDelayNet{
		sched: sched,
		delay: func(k msg.Kind) sim.Duration {
			if k == msg.KindProbe {
				return sim.Microsecond
			}
			return 10 * sim.Millisecond
		},
		handlers: map[transport.NodeID]transport.Handler{},
		observer: checker,
	}
	p0, p1 := buildPair(t, net)

	// Form the 2-cycle and fire exactly one computation from each side.
	if err := p0.Request(1); err != nil {
		t.Fatal(err)
	}
	if err := p1.Request(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := p0.StartProbe(); !ok {
		t.Fatal("p0 not blocked")
	}
	if _, ok := p1.StartProbe(); !ok {
		t.Fatal("p1 not blocked")
	}
	sched.Run()

	// The deadlock is real...
	if !p0.Blocked() || !p1.Blocked() {
		t.Fatal("cycle did not form")
	}
	// ...but both probes overtook the requests and were discarded, so
	// neither side declares: a missed detection caused purely by the
	// broken delivery order.
	if _, dead := p0.Deadlocked(); dead {
		t.Fatal("p0 declared despite discarded probe")
	}
	if _, dead := p1.Deadlocked(); dead {
		t.Fatal("p1 declared despite discarded probe")
	}
	if p0.Stats().ProbesDiscarded+p1.Stats().ProbesDiscarded == 0 {
		t.Fatal("no probe was discarded — overtake did not happen")
	}
	// The tripwire must have seen the overtake.
	if checker.Violations() == 0 {
		t.Fatal("FIFO checker missed the injected violation")
	}
}

func TestSameScenarioDetectsOnConformingNetwork(t *testing.T) {
	// Identical drive over the FIFO-preserving simulator: detection is
	// guaranteed (Theorem 1), even though requests are just as slow.
	sched := sim.New(1)
	net := transport.NewSimNet(sched, transport.FixedLatency(10*sim.Millisecond))
	checker := trace.NewFIFOChecker(func(s string) { t.Error("violation on conforming net:", s) })
	net.Observe(checker)
	oracle := wfg.NewGraphObserver(nil)
	net.Observe(oracle)
	p0, p1 := buildPair(t, net)

	if err := p0.Request(1); err != nil {
		t.Fatal(err)
	}
	if err := p1.Request(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := p0.StartProbe(); !ok {
		t.Fatal("p0 not blocked")
	}
	if _, ok := p1.StartProbe(); !ok {
		t.Fatal("p1 not blocked")
	}
	sched.Run()

	_, d0 := p0.Deadlocked()
	_, d1 := p1.Deadlocked()
	if !d0 && !d1 {
		t.Fatal("conforming network missed the deadlock")
	}
	onBlack := false
	oracle.With(func(g *wfg.Graph) { onBlack = g.OnBlackCycle(0) })
	if !onBlack {
		t.Fatal("oracle disagrees with detection")
	}
}

func TestSlowProbesOnlyDelayDetection(t *testing.T) {
	// The converse fault — probes slower than requests but still FIFO
	// per link — is harmless: P4 only requires finite delivery. Use the
	// conforming simulator with huge latency to show detection is
	// merely late, never wrong.
	sched := sim.New(2)
	net := transport.NewSimNet(sched, transport.FixedLatency(sim.Second))
	p0, p1 := buildPair(t, net)
	if err := p0.Request(1); err != nil {
		t.Fatal(err)
	}
	if err := p1.Request(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := p0.StartProbe(); !ok {
		t.Fatal("p0 not blocked")
	}
	sched.Run()
	if _, dead := p0.Deadlocked(); !dead {
		t.Fatal("slow network missed the deadlock")
	}
	if now := sched.Now(); now < 2*sim.Second {
		t.Fatalf("detection implausibly early: %d", now)
	}
}
