package engine

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/transport"
)

// orderLogic records, per sender, the probe sequence numbers it steps
// through. Its state is written only by the owning shard's loop
// goroutine (the single-writer invariant under test); reads happen
// after Drain, which synchronizes with the loop through the shard
// mutex.
type orderLogic struct {
	seen map[transport.NodeID][]uint64
}

func (l *orderLogic) HandleMessage(from transport.NodeID, m msg.Message) { l.Step(from, m) }

func (l *orderLogic) Step(from transport.NodeID, m msg.Message) {
	l.seen[from] = append(l.seen[from], m.(msg.Probe).Tag.N)
}

// TestHostCrossShardPerPairFIFO drives many concurrent senders at
// receivers pinned to different shards and checks the per-ordered-pair
// FIFO contract (axiom P4): a receiver must observe each sender's
// probes in send order even though the pairs interleave across shard
// queues.
func TestHostCrossShardPerPairFIFO(t *testing.T) {
	const senders, receivers, perPair = 8, 8, 500
	h := NewHost(Options{Shards: 4})
	defer h.Close()

	logics := make(map[transport.NodeID]*orderLogic)
	for r := 0; r < receivers; r++ {
		node := transport.NodeID(100 + r)
		l := &orderLogic{seen: make(map[transport.NodeID][]uint64)}
		logics[node] = l
		h.Register(node, l)
	}
	// Senders need no registration: Host.Send takes the sender id as a
	// claim, exactly like the wire transports.
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := uint64(1); k <= perPair; k++ {
				for r := 0; r < receivers; r++ {
					h.Send(transport.NodeID(s), transport.NodeID(100+r),
						msg.Probe{Tag: id.Tag{Initiator: 1, N: k}})
				}
			}
		}(s)
	}
	wg.Wait()
	h.Drain()

	for node, l := range logics {
		if got := len(l.seen); got != senders {
			t.Fatalf("receiver %d heard %d senders, want %d", node, got, senders)
		}
		for from, ns := range l.seen {
			if len(ns) != perPair {
				t.Fatalf("pair %d->%d delivered %d probes, want %d", from, node, len(ns), perPair)
			}
			for i := 1; i < len(ns); i++ {
				if ns[i] != ns[i-1]+1 {
					t.Fatalf("pair %d->%d reordered: %d after %d", from, node, ns[i], ns[i-1])
				}
			}
		}
	}
	st := h.Stats()
	if want := uint64(senders * receivers * perPair); st.IntraSends != want {
		t.Errorf("IntraSends = %d, want %d", st.IntraSends, want)
	}
	if st.RemoteSends != 0 || st.RemoteRecvs != 0 {
		t.Errorf("remote traffic on an intra-host run: sends=%d recvs=%d", st.RemoteSends, st.RemoteRecvs)
	}
}

// affinityLogic records the goroutine id of every step it executes —
// message deliveries and recovery verdicts alike. All of them must be
// the same goroutine: the owning shard's loop.
type affinityLogic struct {
	gids map[uint64]int
}

func (l *affinityLogic) HandleMessage(transport.NodeID, msg.Message) { l.note() }
func (l *affinityLogic) Step(transport.NodeID, msg.Message)          { l.note() }
func (l *affinityLogic) StepPeerDown(transport.NodeID)               { l.note() }
func (l *affinityLogic) StepPeerUp(transport.NodeID)                 { l.note() }
func (l *affinityLogic) note()                                       { l.gids[curGID()]++ }

// TestHostShardAffinityUnderPeerDownStorm floods a sharded Host with
// concurrent sends, public-API steps, and PeerDown/PeerUp storms, then
// checks that every process executed every one of its steps on exactly
// one goroutine — shard affinity holds even while the recovery path is
// fanning verdicts across all shards.
func TestHostShardAffinityUnderPeerDownStorm(t *testing.T) {
	const procs, rounds = 64, 50
	h := NewHost(Options{Shards: 4})
	defer h.Close()

	logics := make([]*affinityLogic, procs)
	for i := 0; i < procs; i++ {
		l := &affinityLogic{gids: make(map[uint64]int)}
		logics[i] = l
		h.Register(transport.NodeID(i), l)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // message traffic
		defer wg.Done()
		for k := uint64(1); k <= rounds; k++ {
			for i := 0; i < procs; i++ {
				h.Send(transport.NodeID((i+1)%procs), transport.NodeID(i),
					msg.Probe{Tag: id.Tag{Initiator: 1, N: k}})
			}
		}
	}()
	go func() { // liveness churn
		defer wg.Done()
		for k := 0; k < rounds; k++ {
			peer := transport.NodeID(1000 + k%3)
			h.PeerDown(peer)
			h.PeerUp(peer, true)
		}
	}()
	go func() { // public-API steps through the shard runners
		defer wg.Done()
		for k := 0; k < rounds; k++ {
			for i := 0; i < procs; i++ {
				i := i
				h.Runner(transport.NodeID(i)).Exec(func() { logics[i].note() })
			}
		}
	}()
	wg.Wait()
	h.Drain()

	wantSteps := rounds /*sends*/ + 2*rounds /*down+up*/ + rounds /*exec*/
	byShard := make(map[int]uint64)
	for i, l := range logics {
		if len(l.gids) != 1 {
			t.Fatalf("process %d stepped on %d goroutines, want 1: %v", i, len(l.gids), l.gids)
		}
		for gid, n := range l.gids {
			if n != wantSteps {
				t.Fatalf("process %d executed %d steps, want %d", i, n, wantSteps)
			}
			sh := h.ShardOf(transport.NodeID(i))
			if prev, ok := byShard[sh]; ok && prev != gid {
				t.Fatalf("shard %d ran on two goroutines: %d and %d", sh, prev, gid)
			}
			byShard[sh] = gid
		}
	}
	if len(byShard) != h.Shards() {
		t.Errorf("steps landed on %d shards, want %d", len(byShard), h.Shards())
	}
}

// TestHostObserverBalance pins the quiescence invariant the conformance
// suite leans on: with a Counters observer attached, every intra-host
// send is matched by exactly one delivery once the Host drains.
func TestHostObserverBalance(t *testing.T) {
	h := NewHost(Options{Shards: 2})
	defer h.Close()
	c := metrics.NewCounters()
	h.Observe(c)
	h.Register(1, &orderLogic{seen: make(map[transport.NodeID][]uint64)})
	h.Register(2, &orderLogic{seen: make(map[transport.NodeID][]uint64)})
	for k := uint64(1); k <= 100; k++ {
		h.Send(1, 2, msg.Probe{Tag: id.Tag{Initiator: 1, N: k}})
		h.Send(2, 1, msg.Probe{Tag: id.Tag{Initiator: 2, N: k}})
	}
	h.Drain()
	if sent, delivered := c.TotalSent(), c.TotalDelivered(); sent != 200 || delivered != 200 {
		t.Fatalf("sent=%d delivered=%d, want 200/200", sent, delivered)
	}
}

// TestHostReentrantExec checks the reentrancy contract: a step running
// on the shard loop may call back into the same process's Runner and
// must execute inline instead of deadlocking.
type reentrantLogic struct {
	h    *Host
	node transport.NodeID
	ran  bool
}

func (l *reentrantLogic) HandleMessage(from transport.NodeID, m msg.Message) { l.Step(from, m) }

func (l *reentrantLogic) Step(transport.NodeID, msg.Message) {
	l.h.Runner(l.node).Exec(func() { l.ran = true })
}

func TestHostReentrantExec(t *testing.T) {
	h := NewHost(Options{Shards: 1})
	defer h.Close()
	l := &reentrantLogic{h: h, node: 7}
	h.Register(7, l)
	h.Send(8, 7, msg.Request{})
	h.Drain()
	var ran bool
	h.Runner(7).Exec(func() { ran = l.ran })
	if !ran {
		t.Fatal("nested Exec inside a shard step did not run")
	}
}

// TestHostSendUnhostedPanics pins the self-contained Host's contract:
// with no underlying transport, a send to an unknown node is a
// programming error, matching the in-process transports.
func TestHostSendUnhostedPanics(t *testing.T) {
	h := NewHost(Options{})
	defer h.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("send to unhosted node with no underlying transport did not panic")
		}
	}()
	h.Send(1, 99, msg.Request{})
}

// TestIngressAccounting exercises the shared rejection bookkeeping:
// counts increment inside the step, callbacks are deferred on the
// effect buffer until the step is over, and reasons render by name.
func TestIngressAccounting(t *testing.T) {
	var reported []ProtocolError
	in := NewIngress(4, func(pe ProtocolError) { reported = append(reported, pe) })
	var fx Effects
	fx.Run(func() {
		in.Reject(&fx, 9, msg.KindReply, ReasonStrayReply, "no outstanding request")
		in.Reject(&fx, 9, msg.KindRequest, ReasonDuplicateRequest, "edge exists")
		if in.Errors() != 2 {
			t.Fatalf("Errors() = %d, want 2", in.Errors())
		}
		if len(reported) != 0 {
			t.Fatal("callback fired inside the step")
		}
	})
	if len(reported) != 2 {
		t.Fatalf("reported %d errors, want 2", len(reported))
	}
	if reported[0].Node != 4 || reported[0].From != 9 || reported[0].Reason != ReasonStrayReply {
		t.Fatalf("bad report: %+v", reported[0])
	}
	if s := reported[0].Error(); s != fmt.Sprintf("node 4: stray-reply from 9: no outstanding request") {
		t.Fatalf("Error() = %q", s)
	}
	if ReasonForgedQueryTag.String() != "forged-query-tag" {
		t.Fatalf("Reason.String() = %q", ReasonForgedQueryTag.String())
	}
	if Reason(999).String() != "protocol-error(999)" {
		t.Fatalf("unknown reason = %q", Reason(999).String())
	}
}

// TestRecoveryAccounting mirrors TestIngressAccounting for the shared
// wait-abort bookkeeping.
func TestRecoveryAccounting(t *testing.T) {
	var reported []WaitAborted
	rec := NewRecovery(3, func(w WaitAborted) { reported = append(reported, w) })
	var fx Effects
	fx.Exec(NewInlineRunner(), func() {
		rec.Abort(&fx, 8)
		if rec.WaitsAborted() != 1 {
			t.Fatalf("WaitsAborted() = %d, want 1", rec.WaitsAborted())
		}
		if len(reported) != 0 {
			t.Fatal("callback fired inside the step")
		}
	})
	if len(reported) != 1 || reported[0] != (WaitAborted{Waiter: 3, Peer: 8}) {
		t.Fatalf("reported %+v", reported)
	}
	if s := reported[0].String(); s != "wait p3->p8 aborted: peer down" {
		t.Fatalf("String() = %q", s)
	}
}

// TestRunnerForFallback checks that a transport without a
// RunnerProvider face (SimNet) gets the inline mutex-backed Runner.
func TestRunnerForFallback(t *testing.T) {
	r := RunnerFor(transport.NewSimNet(sim.New(1), nil), 1)
	if _, ok := r.(*inlineRunner); !ok {
		t.Fatalf("RunnerFor(simnet) = %T, want *inlineRunner", r)
	}
}

// TestShardEventSize: the shard queue's element stays seven words; a
// command step, posted or a rendezvous, is one interface field.
func TestShardEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 56 {
		t.Fatalf("shard event is %d bytes, want at most 56", got)
	}
}
