package transport

// Regression tests for the hot-path hardening sweep: the resequencer's
// held-frame cap and newEpoch's entropy-failure fallback.

import (
	"errors"
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
	// receive hands an in-order frame to its handler before it returns,
	// on the calling goroutine, so got needs no lock.
	var got []msg.Message
	tr.Register(2, HandlerFunc(func(_ NodeID, m msg.Message) { got = append(got, m) }))
	ib := tr.inboxOf(2)

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
	if len(got) != 1 {
		t.Fatalf("%d frames delivered after the in-order frame, want 1", len(got))
	}
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
