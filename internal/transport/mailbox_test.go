package transport

// Internal tests for the ring-buffer mailbox: memory reclamation,
// ordering, and the high-watermark backpressure signal.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
)

// gatedDeliver returns a deliver function that blocks on gate before
// recording each delivery, letting tests build up a queue at will.
func gatedDeliver(gate chan struct{}, got *[]delivery, mu *sync.Mutex) func(delivery) {
	return func(d delivery) {
		<-gate
		mu.Lock()
		*got = append(*got, d)
		mu.Unlock()
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestMailboxCapacityReclaimedAfterBurst(t *testing.T) {
	const burst = 4096
	gate := make(chan struct{})
	var mu sync.Mutex
	var got []delivery
	mb := newMailbox(gatedDeliver(gate, &got, &mu), mailboxConfig{})

	for i := 0; i < burst; i++ {
		mb.put(delivery{from: NodeID(i), m: msg.Request{}})
	}
	if c := mb.capacity(); c < burst {
		t.Fatalf("capacity = %d after burst of %d, want >= burst", c, burst)
	}
	if p := mb.peakDepth(); p < burst-1 {
		t.Fatalf("peakDepth = %d, want >= %d", p, burst-1)
	}
	close(gate)
	waitFor(t, "burst to drain", func() bool { return mb.depth() == 0 })
	// The ring must have shrunk back: a drained mailbox may not pin a
	// burst-sized backing array (the old slice queue kept the whole
	// array — and every delivered message in it — alive).
	if c := mb.capacity(); c > burst/8 {
		t.Fatalf("capacity = %d after drain, want <= %d (ring did not shrink)", c, burst/8)
	}
	mb.close()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != burst {
		t.Fatalf("delivered %d, want %d", len(got), burst)
	}
}

func TestMailboxPreservesFIFO(t *testing.T) {
	const n = 1000
	var mu sync.Mutex
	var got []delivery
	mb := newMailbox(func(d delivery) {
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	}, mailboxConfig{})
	for i := 0; i < n; i++ {
		mb.put(delivery{from: 1, seq: uint64(i + 1), m: msg.Request{}})
	}
	mb.close() // close drains the queue first
	for i, d := range got {
		if d.seq != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d, want %d", i, d.seq, i+1)
		}
	}
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
}

func TestMailboxBackpressureSignal(t *testing.T) {
	const highWater = 100
	type transition struct {
		engaged bool
		depth   int
	}
	var tmu sync.Mutex
	var transitions []transition
	gate := make(chan struct{})
	var mu sync.Mutex
	var got []delivery
	mb := newMailbox(gatedDeliver(gate, &got, &mu), mailboxConfig{
		highWater: highWater,
		onPressure: func(engaged bool, depth int) {
			tmu.Lock()
			transitions = append(transitions, transition{engaged, depth})
			tmu.Unlock()
		},
	})

	// Fill past the watermark while the dispatcher is blocked: exactly
	// one engage transition, no matter how far past it we go.
	for i := 0; i < 3*highWater; i++ {
		mb.put(delivery{from: 1, m: msg.Request{}})
	}
	tmu.Lock()
	if len(transitions) != 1 || !transitions[0].engaged || transitions[0].depth < highWater {
		t.Fatalf("after fill: transitions = %+v, want one engage at depth >= %d", transitions, highWater)
	}
	tmu.Unlock()

	// Drain: exactly one release, fired at half the watermark.
	close(gate)
	waitFor(t, "queue to drain", func() bool { return mb.depth() == 0 })
	mb.close()
	tmu.Lock()
	defer tmu.Unlock()
	if len(transitions) != 2 {
		t.Fatalf("transitions = %+v, want engage then release", transitions)
	}
	if rel := transitions[1]; rel.engaged || rel.depth > highWater/2 {
		t.Fatalf("release transition %+v, want engaged=false at depth <= %d", rel, highWater/2)
	}
}

func TestMailboxZeroConfigNeverSignals(t *testing.T) {
	fired := false
	mb := newMailbox(func(delivery) {}, mailboxConfig{
		onPressure: func(bool, int) { fired = true },
	})
	for i := 0; i < 100; i++ {
		mb.put(delivery{from: 1, m: msg.Request{}})
	}
	mb.close()
	if fired {
		t.Fatal("onPressure fired with highWater = 0")
	}
}
