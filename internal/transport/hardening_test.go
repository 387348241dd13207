package transport

// Regression tests for the hot-path hardening sweep: the resequencer's
// held-frame cap, newEpoch's entropy-failure fallback, and the mailbox
// ring's resize hysteresis.

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/msg"
)

// TestResequencerHeldCap: a buggy or hostile sender jumping to
// Seq = 1<<40 must not pin unbounded memory in the receiver's
// resequencer — frames beyond MaxHeldPerStream are dropped and
// counted, and in-order traffic keeps flowing.
func TestResequencerHeldCap(t *testing.T) {
	const cap = 8
	tr := NewTCPWithOptions(TCPOptions{MaxHeldPerStream: cap})
	defer tr.Close()
	var mu sync.Mutex
	var got []delivery
	ib := &inbox{host: 2, inc: newEpoch(), pairs: make(map[NodeID]*pairState)}
	ib.box = newMailbox(nil, func(d delivery) {
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	}, mailboxConfig{})
	defer ib.box.close()

	const hostile = 100
	for i := 0; i < hostile; i++ {
		tr.receive(ib, msg.Envelope{
			From: 1, To: 2, SrcHost: 1, Epoch: 7, Seq: 1<<40 + uint64(i), Msg: msg.Request{},
		}, false)
	}
	ps := ib.pairs[1]
	if ps == nil {
		t.Fatal("no pair state created")
	}
	if len(ps.held) > cap {
		t.Fatalf("held %d frames, want <= cap %d", len(ps.held), cap)
	}
	if dropped := tr.Stats().HeldFramesDropped; dropped != hostile-cap {
		t.Fatalf("HeldFramesDropped = %d, want %d", dropped, hostile-cap)
	}
	// A duplicate of an already-held frame is not a second drop.
	tr.receive(ib, msg.Envelope{From: 1, To: 2, SrcHost: 1, Epoch: 7, Seq: 1 << 40, Msg: msg.Request{}}, false)
	if dropped := tr.Stats().HeldFramesDropped; dropped != hostile-cap {
		t.Fatalf("HeldFramesDropped = %d after held-frame duplicate, want %d", dropped, hostile-cap)
	}
	// The stream itself is still healthy: the next in-order frame
	// delivers immediately.
	tr.receive(ib, msg.Envelope{From: 1, To: 2, SrcHost: 1, Epoch: 7, Seq: 1, Msg: msg.Request{}}, false)
	waitFor(t, "in-order frame to deliver", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
}

// TestNewEpochEntropyFallback: when the entropy source fails (or
// returns all zeros), newEpoch must still produce nonzero, mutually
// distinct, strictly increasing epochs — a zero or repeated epoch
// would alias another stream's resequencing state.
func TestNewEpochEntropyFallback(t *testing.T) {
	orig := entropyRead
	defer func() { entropyRead = orig }()

	entropyRead = func(b []byte) (int, error) { return 0, errors.New("entropy exhausted") }
	var prev uint64
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		e := newEpoch()
		if e == 0 {
			t.Fatal("fallback produced epoch 0")
		}
		if seen[e] {
			t.Fatalf("fallback repeated epoch %d", e)
		}
		seen[e] = true
		if i > 0 && e <= prev {
			t.Fatalf("fallback not monotonic: %d after %d", e, prev)
		}
		prev = e
	}

	// A "successful" read of all zeros is the other degenerate case: the
	// zero epoch is the resequencer's uninitialized value and must never
	// be issued.
	entropyRead = func(b []byte) (int, error) {
		for i := range b {
			b[i] = 0
		}
		return len(b), nil
	}
	if e := newEpoch(); e == 0 {
		t.Fatal("all-zero entropy produced epoch 0")
	}
}

// TestMailboxResizeHysteresis: a workload oscillating around a ring
// power-of-two boundary must not pay a reallocation per cycle. Without
// the consecutive-pop hysteresis each cycle below shrinks on the drain
// and grows again on the refill (two copies per cycle, ~2000 total);
// with it the ring just stays put.
func TestMailboxResizeHysteresis(t *testing.T) {
	mb := &mailbox{} // bare ring: no dispatcher, single-threaded access
	for i := 0; i < 17; i++ {
		mb.pushLocked(delivery{seq: uint64(i)})
	}
	if c := len(mb.buf); c != 32 {
		t.Fatalf("capacity = %d after 17 pushes, want 32", c)
	}
	base := mb.resizes
	for cycle := 0; cycle < 1000; cycle++ {
		for i := 0; i < 9; i++ {
			mb.popLocked() // drain to n=8 (== cap/4 of 32)
		}
		for i := 0; i < 9; i++ {
			mb.pushLocked(delivery{}) // refill to n=17
		}
	}
	if thrash := mb.resizes - base; thrash > 2 {
		t.Fatalf("ring resized %d times across 1000 oscillation cycles, want <= 2", thrash)
	}

	// A sustained drain must still reclaim the memory: that is the whole
	// point of shrinking, and the hysteresis only defers it.
	for mb.n < 129 {
		mb.pushLocked(delivery{})
	}
	for mb.n > 0 {
		mb.popLocked()
	}
	if c := len(mb.buf); c > 64 {
		t.Fatalf("capacity = %d after sustained drain, want <= 64", c)
	}
}
