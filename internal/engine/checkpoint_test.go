package engine

import (
	"sync"
	"testing"

	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/wal"
)

// snapLogic is a Snapshotter process for the durability tests: its
// state is the sum and count of every probe N it has stepped, so
// "checkpoint + tail replay delivered everything exactly once" reduces
// to two integers matching.
type snapLogic struct {
	sum   uint64
	steps uint64
}

func (l *snapLogic) HandleMessage(from transport.NodeID, m msg.Message) { l.Step(from, m) }

func (l *snapLogic) Step(_ transport.NodeID, m msg.Message) {
	l.sum += m.(msg.Probe).Tag.N
	l.steps++
}

func (l *snapLogic) MarshalState() []byte {
	w := NewSnapWriter(16)
	w.U64(l.sum)
	w.U64(l.steps)
	return w.Bytes()
}

func (l *snapLogic) RestoreState(data []byte) error {
	r := NewSnapReader(data)
	l.sum = r.U64()
	l.steps = r.U64()
	return r.Err()
}

// walRig wires a Host to a WAL the way the TCP transport does: every
// sequenced frame is journaled (LogDelivery) and then handed to the
// destination's inbound shim.
type walRig struct {
	t      *testing.T
	h      *Host
	w      *wal.Log
	logics map[transport.NodeID]*snapLogic
}

func newWALRig(t *testing.T, dir string, inc uint64) *walRig {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	h := NewHost(Options{Shards: 2})
	h.AttachWAL(w, DurabilityHooks{Incarnation: func() uint64 { return inc }})
	r := &walRig{t: t, h: h, w: w, logics: make(map[transport.NodeID]*snapLogic)}
	for _, node := range []transport.NodeID{1, 2} {
		l := &snapLogic{}
		r.logics[node] = l
		h.Register(node, l)
	}
	return r
}

// handOff delivers one journaled frame as the transport's mailbox does:
// through the destination's inbound shim, onto its shard queue.
func (r *walRig) handOff(from, to transport.NodeID, m msg.Message) {
	p := r.h.proc(to)
	if p == nil {
		r.t.Errorf("handOff(%d->%d): destination not hosted", from, to)
		return
	}
	inboundShim{h: r.h, p: p}.HandleSequenced(from, m, 0, 0)
}

func (r *walRig) close() {
	r.h.Close()
	if err := r.w.Close(); err != nil {
		r.t.Fatalf("wal close: %v", err)
	}
}

// deliver journals and delivers one sequenced frame, mirroring the
// transport's deliverLocked ordering (journal first, then hand off).
func (r *walRig) deliver(stream, from, to transport.NodeID, seq, n uint64) {
	m := msg.Probe{Tag: id.Tag{Initiator: 1, N: n}}
	r.h.LogDelivery(stream, true, 1, seq, from, to, m)
	r.handOff(from, to, m)
}

// sums drains and reads each process's state.
func (r *walRig) sums() map[transport.NodeID][2]uint64 {
	r.h.Drain()
	out := make(map[transport.NodeID][2]uint64)
	for node, l := range r.logics {
		var s, c uint64
		r.h.Runner(node).Exec(func() { s, c = l.sum, l.steps })
		out[node] = [2]uint64{s, c}
	}
	return out
}

// TestCheckpointRestoreTailReplay is the core recovery round trip:
// checkpointed frames come back through RestoreState, post-checkpoint
// frames come back through WAL tail replay, and the primed cursors
// cover both host streams.
func TestCheckpointRestoreTailReplay(t *testing.T) {
	dir := t.TempDir()
	r := newWALRig(t, dir, 7)

	// Two host streams: 900 -> proc 1, 500 -> proc 2.
	for seq := uint64(1); seq <= 5; seq++ {
		r.deliver(900, 900, 1, seq, seq)
		r.deliver(500, 901, 2, seq, 10*seq)
	}
	if err := r.h.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for seq := uint64(6); seq <= 8; seq++ { // the tail
		r.deliver(900, 900, 1, seq, seq)
	}
	want := r.sums()
	r.close()

	// "Crash" and restore into a fresh Host.
	r2 := newWALRig(t, dir, 7)
	defer r2.close()
	st, err := r2.h.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !st.Found || st.SnapshotsRestored != 2 {
		t.Fatalf("Found=%v SnapshotsRestored=%d, want true/2", st.Found, st.SnapshotsRestored)
	}
	if st.TailReplayed != 3 || st.StaleGenDropped != 0 || st.DecodeErrors != 0 {
		t.Fatalf("tail=%d stale=%d decode=%d, want 3/0/0", st.TailReplayed, st.StaleGenDropped, st.DecodeErrors)
	}
	if st.Inc != 7 {
		t.Fatalf("Inc = %d, want 7", st.Inc)
	}
	if st.Gen != 2 {
		t.Fatalf("Gen = %d, want 2", st.Gen)
	}
	wantCursors := []transport.StreamCursor{
		{Stream: 500, Epoch: 1, Next: 6},
		{Stream: 900, Epoch: 1, Next: 9},
	}
	if len(st.Cursors) != len(wantCursors) {
		t.Fatalf("cursors = %+v, want %+v", st.Cursors, wantCursors)
	}
	for i, c := range wantCursors {
		if st.Cursors[i] != c {
			t.Fatalf("cursor[%d] = %+v, want %+v", i, st.Cursors[i], c)
		}
	}
	if err := r2.h.FinishRestore(); err != nil {
		t.Fatalf("FinishRestore: %v", err)
	}
	if got := r2.sums(); got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("restored sums %v, want %v", got, want)
	}
	hs := r2.h.Stats()
	if hs.TailReplayed != 3 || hs.CheckpointsTaken != 1 {
		t.Fatalf("host stats tail=%d ckpts=%d, want 3/1", hs.TailReplayed, hs.CheckpointsTaken)
	}

	// Traffic resumes under the new generation and the next restore
	// carries it: the FinishRestore checkpoint anchored gen 2.
	r2.deliver(900, 900, 1, 9, 100)
	r2.h.Drain()
}

// TestRestoreFencesStaleGeneration is the regression test for the
// stale-frame fence: tail records carrying a durability generation
// other than the loaded checkpoint's must be dropped (with the stat
// bumped), not delivered into the restored state.
func TestRestoreFencesStaleGeneration(t *testing.T) {
	dir := t.TempDir()
	r := newWALRig(t, dir, 1)
	for seq := uint64(1); seq <= 4; seq++ {
		r.deliver(900, 900, 1, seq, seq)
	}
	if err := r.h.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Two legitimate tail frames under the live generation...
	r.deliver(900, 900, 1, 5, 5)
	r.deliver(900, 900, 1, 6, 6)
	// ...and three stale-generation records appended directly, as a
	// superseded instance would have (same stream, later seqs).
	for seq := uint64(7); seq <= 9; seq++ {
		frame, err := msg.AppendEnvelopeFrame(nil, msg.Envelope{
			From: 900, To: 1, SrcHost: 900, Seq: seq, Epoch: 1,
			Msg: msg.Probe{Tag: id.Tag{Initiator: 1, N: 1000}},
		})
		if err != nil {
			t.Fatalf("frame: %v", err)
		}
		if _, err := r.w.Append(wal.KindEnvelope, 99, frame); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	r.close()

	r2 := newWALRig(t, dir, 1)
	defer r2.close()
	st, err := r2.h.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if st.TailReplayed != 2 || st.StaleGenDropped != 3 {
		t.Fatalf("tail=%d stale=%d, want 2/3", st.TailReplayed, st.StaleGenDropped)
	}
	if err := r2.h.FinishRestore(); err != nil {
		t.Fatalf("FinishRestore: %v", err)
	}
	// 1+2+3+4 checkpointed, 5+6 replayed, the 1000s fenced.
	if got := r2.sums()[1]; got != [2]uint64{21, 6} {
		t.Fatalf("proc 1 state = %v, want {21 6}", got)
	}
	if hs := r2.h.Stats(); hs.StaleGenDropped != 3 {
		t.Fatalf("StaleGenDropped stat = %d, want 3", hs.StaleGenDropped)
	}
}

// TestRestoreBlankDirectory: restoring from an empty WAL directory is a
// blank start — no checkpoint, nothing replayed, generation 1 minted —
// and FinishRestore anchors it so the next cycle finds a checkpoint.
func TestRestoreBlankDirectory(t *testing.T) {
	dir := t.TempDir()
	r := newWALRig(t, dir, 3)
	st, err := r.h.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if st.Found || st.TailReplayed != 0 || st.Gen != 1 || st.Inc != 0 {
		t.Fatalf("blank restore = %+v", st)
	}
	if err := r.h.FinishRestore(); err != nil {
		t.Fatalf("FinishRestore: %v", err)
	}
	r.deliver(900, 900, 1, 1, 42)
	r.h.Drain()
	r.close()

	r2 := newWALRig(t, dir, 3)
	defer r2.close()
	st2, err := r2.h.Restore()
	if err != nil {
		t.Fatalf("second Restore: %v", err)
	}
	if !st2.Found || st2.TailReplayed != 1 || st2.Gen != 2 || st2.Inc != 3 {
		t.Fatalf("second restore = %+v", st2)
	}
	if err := r2.h.FinishRestore(); err != nil {
		t.Fatalf("FinishRestore: %v", err)
	}
	if got := r2.sums()[1]; got != [2]uint64{42, 1} {
		t.Fatalf("proc 1 state = %v, want {42 1}", got)
	}
}

// TestRestoreSurvivesSecondCrash: records appended after a restore
// carry the new generation, and the FinishRestore checkpoint anchors it
// — a second crash must replay them, not fence them.
func TestRestoreSurvivesSecondCrash(t *testing.T) {
	dir := t.TempDir()
	r := newWALRig(t, dir, 1)
	for seq := uint64(1); seq <= 4; seq++ {
		r.deliver(900, 900, 1, seq, seq)
	}
	if err := r.h.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	r.deliver(900, 900, 1, 5, 5)
	r.close()

	r2 := newWALRig(t, dir, 1)
	if _, err := r2.h.Restore(); err != nil {
		t.Fatalf("first Restore: %v", err)
	}
	if err := r2.h.FinishRestore(); err != nil {
		t.Fatalf("first FinishRestore: %v", err)
	}
	for seq := uint64(6); seq <= 8; seq++ { // gen-2 traffic, never checkpointed
		r2.deliver(900, 900, 1, seq, seq)
	}
	r2.h.Drain()
	r2.close()

	r3 := newWALRig(t, dir, 1)
	defer r3.close()
	st, err := r3.h.Restore()
	if err != nil {
		t.Fatalf("second Restore: %v", err)
	}
	if st.StaleGenDropped != 0 {
		t.Fatalf("second restore fenced %d of its own records", st.StaleGenDropped)
	}
	if st.TailReplayed != 3 || st.Gen != 3 {
		t.Fatalf("tail=%d gen=%d, want 3/3", st.TailReplayed, st.Gen)
	}
	if err := r3.h.FinishRestore(); err != nil {
		t.Fatalf("FinishRestore: %v", err)
	}
	if got := r3.sums()[1]; got != [2]uint64{36, 8} { // 1+..+8
		t.Fatalf("proc 1 state = %v, want {36 8}", got)
	}
}

// TestCheckpointCutUnderTraffic races checkpoints against a delivery
// storm and then proves exactly-once end to end: after a crash, the
// newest checkpoint plus the tail replay reconstruct precisely one copy
// of every frame, wherever the cut landed.
func TestCheckpointCutUnderTraffic(t *testing.T) {
	const frames = 400
	dir := t.TempDir()
	r := newWALRig(t, dir, 1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); seq <= frames; seq++ {
			r.deliver(900, 900, 1, seq, seq)
		}
	}()
	for i := 0; i < 8; i++ {
		if err := r.h.Checkpoint(); err != nil {
			t.Errorf("Checkpoint %d: %v", i, err)
		}
	}
	wg.Wait()
	r.h.Drain()
	r.close()

	r2 := newWALRig(t, dir, 1)
	defer r2.close()
	if _, err := r2.h.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := r2.h.FinishRestore(); err != nil {
		t.Fatalf("FinishRestore: %v", err)
	}
	want := [2]uint64{frames * (frames + 1) / 2, frames}
	if got := r2.sums()[1]; got != want {
		t.Fatalf("proc 1 state = %v, want %v (lost or duplicated frames across the cut)", got, want)
	}
}
