package wal_test

import (
	"errors"
	"os"
	"testing"

	"repro/internal/engine"
	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/wal"
)

// TestFailedGroupCommitCountsEveryFrame pins the Host's error accounting
// over the latched log: a group whose commit fails — at its write(2) or
// at its fsync — leaves none of its records known durable, so
// HostStats.WALErrors grows by the group's size, not by one; after the
// latch every further frame fails at its append and is counted once
// there — never again at the commit. The frames are all still counted
// as journaled (the checkpoint cut's logged == stepped bookkeeping does
// not depend on the disk). A failed write also takes its group back out
// of the log, which then ends at the last record written whole.
func TestFailedGroupCommitCountsEveryFrame(t *testing.T) {
	for _, tc := range []struct {
		name    string
		inject  func(*wal.Log)
		records uint64 // log records after the failed group
	}{
		{"fsync", func(w *wal.Log) {
			wal.SetSyncFile(w, func(*os.File) error { return errors.New("injected EIO") })
		}, 9},
		{"write", wal.BreakSegment, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := wal.Open(wal.Options{Dir: t.TempDir(), Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			h := engine.NewHost(engine.Options{Shards: 1})
			defer h.Close()
			h.AttachWAL(w, engine.DurabilityHooks{})
			h.Register(4, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))

			seq := uint64(0)
			group := func(n int) {
				for i := 0; i < n; i++ {
					seq++
					if !h.AppendDelivery(5, false, 1, seq, 5, 4, msg.Probe{}) {
						t.Fatal("AppendDelivery declined with no checkpoint in progress")
					}
				}
				h.CommitDeliveries()
			}
			group(4)
			if got := h.Stats().WALErrors; got != 0 {
				t.Fatalf("WALErrors = %d on a healthy disk", got)
			}

			tc.inject(w)
			group(5) // appends succeed, the commit fails
			if got := h.Stats().WALErrors; got != 5 {
				t.Fatalf("WALErrors = %d after a failed commit over 5 frames, want 5", got)
			}
			if got := w.Stats().Records; got != tc.records {
				t.Fatalf("log Records = %d after the failed group, want %d", got, tc.records)
			}
			group(3) // latched: each append fails; the commit has nothing new to lose
			if got := h.Stats().WALErrors; got != 8 {
				t.Fatalf("WALErrors = %d after 3 more frames on the latched log, want 8", got)
			}
			seq++
			h.LogDelivery(5, false, 1, seq, 5, 4, msg.Probe{}) // the per-frame face counts the same way
			if st := h.Stats(); st.WALErrors != 9 || st.RecordsAppended != 13 {
				t.Fatalf("WALErrors = %d, RecordsAppended = %d; want 9 and 13", st.WALErrors, st.RecordsAppended)
			}
		})
	}
}
