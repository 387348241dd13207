package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// stagedFrame is one frame a test "transport" has journaled and not yet
// delivered — the engine-side view of the TCP inbox's stage.
type stagedFrame struct {
	from, to transport.NodeID
	m        msg.Message
}

// groupReader mimics the transport's reader against the Host's batched
// face: AppendDelivery + stage, CommitDeliveries + hand-off on flush, and
// the flush-then-LogDelivery fallback when the append is declined.
type groupReader struct {
	r        *walRig
	stage    []stagedFrame
	declined int
}

func (g *groupReader) receive(stream transport.NodeID, from, to transport.NodeID, seq, n uint64) {
	m := msg.Probe{Tag: id.Tag{Initiator: 1, N: n}}
	if g.r.h.AppendDelivery(stream, true, 1, seq, from, to, m) {
		g.stage = append(g.stage, stagedFrame{from: from, to: to, m: m})
		return
	}
	g.declined++
	g.flush()
	g.r.h.LogDelivery(stream, true, 1, seq, from, to, m)
	g.handOff(stagedFrame{from: from, to: to, m: m})
}

func (g *groupReader) flush() {
	if len(g.stage) == 0 {
		return
	}
	g.r.h.CommitDeliveries()
	for _, f := range g.stage {
		g.handOff(f)
	}
	g.stage = g.stage[:0]
}

func (g *groupReader) handOff(f stagedFrame) { g.r.handOff(f.from, f.to, f.m) }

// TestCheckpointWaitsForStagedGroup walks the checkpoint cut through a
// half-built group, step by step: frames journaled but still staged keep
// the cut open (logged != stepped), the closing gate makes the next
// deferred append decline instead of deadlocking behind it, and once
// the group is committed and delivered the checkpoint completes with
// the staged frames inside the snapshot and the declined one in the
// replayable tail.
func TestCheckpointWaitsForStagedGroup(t *testing.T) {
	dir := t.TempDir()
	r := newWALRig(t, dir, 7)
	g := &groupReader{r: r}
	for seq := uint64(1); seq <= 3; seq++ {
		g.receive(900, 900, 1, seq, seq)
	}
	if len(g.stage) != 3 {
		t.Fatalf("staged %d frames, want 3", len(g.stage))
	}

	ckpt := make(chan error, 1)
	go func() { ckpt <- r.h.Checkpoint() }()
	// The cut cannot close while three journaled frames are undelivered.
	deadline := time.Now().Add(5 * time.Second)
	for r.h.walGate.TryRLock() { // wait for Checkpoint to hold the gate
		r.h.walGate.RUnlock()
		if time.Now().After(deadline) {
			t.Fatal("Checkpoint never took the gate")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-ckpt:
		t.Fatalf("Checkpoint returned (%v) with a group still staged", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Frame 4 arrives: the deferred append must decline, not block — the
	// reader flushes the group (which lets the cut converge) and the
	// frame waits for the gate inside LogDelivery.
	g.receive(900, 900, 1, 4, 4)
	if g.declined != 1 {
		t.Fatalf("declined appends = %d, want 1", g.declined)
	}
	if err := <-ckpt; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	want := r.sums()
	if got := want[1]; got != [2]uint64{1 + 2 + 3 + 4, 4} {
		t.Fatalf("process 1 state = %v, want sum 10 over 4 steps", got)
	}
	r.close()

	r2 := newWALRig(t, dir, 7)
	defer r2.close()
	st, err := r2.h.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if st.TailReplayed != 1 {
		t.Fatalf("TailReplayed = %d, want 1: frames 1-3 belong to the snapshot, frame 4 to the tail", st.TailReplayed)
	}
	if err := r2.h.FinishRestore(); err != nil {
		t.Fatalf("FinishRestore: %v", err)
	}
	if got := r2.sums(); got[1] != want[1] {
		t.Fatalf("restored state %v, want %v", got[1], want[1])
	}
}

// TestCheckpointRacesGroupCommit hammers the same cut under -race: two
// readers stage and flush groups of varying size while checkpoints are
// taken back to back. Every checkpoint must return (no reader ever
// blocks with frames staged), and a restore from whatever the last
// checkpoint caught plus the tail reproduces the final state exactly —
// no frame lost to the cut, none applied twice.
func TestCheckpointRacesGroupCommit(t *testing.T) {
	dir := t.TempDir()
	r := newWALRig(t, dir, 7)
	const perReader = 600
	var wg sync.WaitGroup
	var declined atomic.Int64
	for i, to := range []transport.NodeID{1, 2} {
		wg.Add(1)
		go func(stream, to transport.NodeID) {
			defer wg.Done()
			g := &groupReader{r: r}
			for seq := uint64(1); seq <= perReader; seq++ {
				g.receive(stream, stream, to, seq, seq)
				if seq%7 == 0 || seq%16 == 0 { // the read buffer "drained"
					g.flush()
				}
			}
			g.flush()
			declined.Add(int64(g.declined))
		}(transport.NodeID(900+i), to)
	}
	stop := make(chan struct{})
	ckptDone := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				ckptDone <- n
				return
			default:
			}
			if err := r.h.Checkpoint(); err != nil {
				t.Errorf("Checkpoint: %v", err)
			}
			n++
			// Pacing, not synchronisation: leave the gate open long enough
			// that some groups form between cuts and some straddle one.
			time.Sleep(300 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	n := <-ckptDone
	if n == 0 {
		t.Fatal("no checkpoint completed during the run")
	}
	t.Logf("%d checkpoints raced %d frames; %d deferred appends declined at a closing gate", n, 2*perReader, declined.Load())
	want := r.sums()
	const sum = perReader * (perReader + 1) / 2
	for _, node := range []transport.NodeID{1, 2} {
		if want[node] != [2]uint64{sum, perReader} {
			t.Fatalf("process %d state = %v, want sum %d over %d steps", node, want[node], sum, perReader)
		}
	}
	if st := r.h.Stats(); st.RecordsAppended != 2*perReader || st.WALErrors != 0 {
		t.Fatalf("RecordsAppended = %d, WALErrors = %d; want %d and 0", st.RecordsAppended, st.WALErrors, 2*perReader)
	}
	r.close()

	r2 := newWALRig(t, dir, 7)
	defer r2.close()
	if _, err := r2.h.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := r2.h.FinishRestore(); err != nil {
		t.Fatalf("FinishRestore: %v", err)
	}
	got := r2.sums()
	for _, node := range []transport.NodeID{1, 2} {
		if got[node] != want[node] {
			t.Fatalf("process %d restored to %v, want %v", node, got[node], want[node])
		}
	}
}

// TestLogDeliveryBareIsDurableOnReturn pins what a decorator around the
// Host relies on: called bare, LogDelivery journals AND syncs before it
// returns under SyncAlways — one fsync per call — while the batched
// face pays one fsync per CommitDeliveries however many frames it
// covers, and an empty commit pays none.
func TestLogDeliveryBareIsDurableOnReturn(t *testing.T) {
	r := newWALRig(t, t.TempDir(), 7) // SyncAlways
	defer r.close()
	m := msg.Probe{Tag: id.Tag{Initiator: 1, N: 1}}
	for seq := uint64(1); seq <= 3; seq++ {
		r.h.LogDelivery(900, true, 1, seq, 900, 1, m)
		if got := r.w.Stats().Syncs; got != seq {
			t.Fatalf("after %d bare LogDelivery calls the log had synced %d times", seq, got)
		}
	}
	for seq := uint64(4); seq <= 9; seq++ {
		if !r.h.AppendDelivery(900, true, 1, seq, 900, 1, m) {
			t.Fatal("AppendDelivery declined with no checkpoint in progress")
		}
	}
	if got := r.w.Stats().Syncs; got != 3 {
		t.Fatalf("deferred appends synced: Syncs = %d, want 3", got)
	}
	r.h.CommitDeliveries()
	r.h.CommitDeliveries()
	if got := r.w.Stats().Syncs; got != 4 {
		t.Fatalf("Syncs = %d after one group of 6, want 4", got)
	}
	if st := r.h.Stats(); st.RecordsAppended != 9 || st.WALErrors != 0 {
		t.Fatalf("RecordsAppended = %d, WALErrors = %d; want 9 and 0", st.RecordsAppended, st.WALErrors)
	}
	// The frames were journaled but never handed on: step them so the
	// rig's close (and any cut) sees logged == stepped.
	for seq := uint64(1); seq <= 9; seq++ {
		r.handOff(900, 1, m)
	}
}
