package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/msg"
)

// TestEpochChangePurgesHeldFrames is the regression test for the
// resequencer leak: frames parked out of order under epoch N must
// vanish the moment the sender rejoins under epoch N+1 — counted by
// HeldFramesPurged (not HeldFramesDropped) and never delivered into
// the new epoch's stream, even when their sequence numbers collide
// with live ones.
func TestEpochChangePurgesHeldFrames(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()

	var mu sync.Mutex
	var seen []uint64
	tr.Register(2, HandlerFunc(func(_ NodeID, m msg.Message) {
		mu.Lock()
		seen = append(seen, msg.Deref(m).(msg.Probe).Tag.N)
		mu.Unlock()
	}))
	ib := tr.inboxOf(2)

	probe := func(n uint64) msg.Message { return &msg.Probe{Tag: id.Tag{Initiator: 1, N: n}} }
	env := func(epoch, seq, n uint64) msg.Envelope {
		return msg.Envelope{From: 1, To: 2, SrcHost: 1, Seq: seq, Epoch: epoch, Msg: probe(n)}
	}

	// Epoch 7: seq 1 delivers; seq 3 and 4 park behind the gap at 2.
	tr.receive(ib, env(7, 1, 101), false)
	tr.receive(ib, env(7, 3, 103), false)
	tr.receive(ib, env(7, 4, 104), false)
	if got := tr.Stats().Resequenced; got != 2 {
		t.Fatalf("Resequenced = %d, want 2", got)
	}
	ib.mu.Lock()
	held := len(ib.pairs[1].held)
	ib.mu.Unlock()
	if held != 2 {
		t.Fatalf("held = %d frames, want 2", held)
	}

	// The sender rejoins under epoch 9. Its first frame must purge the
	// stale parking lot in the same step.
	tr.receive(ib, env(9, 1, 201), false)
	s := tr.Stats()
	if s.HeldFramesPurged != 2 {
		t.Fatalf("HeldFramesPurged = %d, want 2", s.HeldFramesPurged)
	}
	if s.HeldFramesDropped != 0 {
		t.Fatalf("HeldFramesDropped = %d, want 0 — purges must not count as drops", s.HeldFramesDropped)
	}
	ib.mu.Lock()
	ps := ib.pairs[1]
	held = len(ps.held)
	epoch := ps.epoch
	ib.mu.Unlock()
	if held != 0 || epoch != 9 {
		t.Fatalf("after rejoin: held=%d epoch=%d, want 0 held under epoch 9", held, epoch)
	}

	// Sequence numbers 3 and 4 of the new epoch collide with the purged
	// frames': they must deliver the new payloads, never the stale ones.
	tr.receive(ib, env(9, 2, 202), false)
	tr.receive(ib, env(9, 3, 203), false)
	tr.receive(ib, env(9, 4, 204), false)

	want := []uint64{101, 201, 202, 203, 204}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n >= len(want) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(want) {
		t.Fatalf("delivered %v, want %v (stale frames must not be redelivered)", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("delivered %v, want %v", seen, want)
		}
	}
}
