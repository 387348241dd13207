package engine

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/wal"
)

// TestWALAppendSteadyStateAllocFree pins the durability cost contract:
// journaling a delivered envelope — encode into the host's reused
// scratch buffer, frame into the log's reused record buffer, write —
// stays off the per-frame allocation budget, through the per-frame face
// and the group face alike. The zero-alloc receive
// path (§10) must not regress when a WAL is attached.
func TestWALAppendSteadyStateAllocFree(t *testing.T) {
	w, err := wal.Open(wal.Options{Dir: t.TempDir(), Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := NewHost(Options{Shards: 1})
	defer h.Close()
	h.AttachWAL(w, DurabilityHooks{})
	h.Register(4, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))

	m := msg.Probe{}
	seq := uint64(1)
	// Warm the scratch buffers, then measure the steady state.
	h.LogDelivery(5, false, 1, seq, 5, 4, m)
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		h.LogDelivery(5, false, 1, seq, 5, 4, m)
	})
	if allocs != 0 {
		t.Fatalf("WAL append allocated %.1f times per frame, want 0", allocs)
	}
	// The batched face shares the scratch: a group of deferred appends
	// and its commit allocate nothing either.
	allocs = testing.AllocsPerRun(50, func() {
		for i := 0; i < 8; i++ {
			seq++
			h.AppendDelivery(5, false, 1, seq, 5, 4, m)
		}
		h.CommitDeliveries()
	})
	if allocs != 0 {
		t.Fatalf("a group of 8 appends plus its commit allocated %.1f times, want 0", allocs)
	}
	if got := h.Stats().RecordsAppended; got < 200 {
		t.Fatalf("only %d records appended — the journal path did not run", got)
	}
}
