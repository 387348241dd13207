package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSyncPolicyStrings(t *testing.T) {
	cases := map[SyncPolicy]string{
		SyncAlways:    "always",
		SyncInterval:  "interval",
		SyncNever:     "never",
		SyncPolicy(9): "SyncPolicy(9)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	for _, name := range []string{"always", "interval", "never"} {
		p, err := ParseSyncPolicy(name)
		if err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Errorf("ParseSyncPolicy(%q) = %v", name, p)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted an unknown policy")
	}
}

// TestExplicitSync pins the manual flush path: under SyncNever an
// explicit Sync persists the dirty tail and counts, a clean repeat is
// a no-op, and Sync on a closed log is not an error.
func TestExplicitSync(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncNever})
	if _, err := w.Append(KindEnvelope, 1, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	syncs := w.Stats().Syncs
	if syncs == 0 {
		t.Fatal("explicit Sync did not count")
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Syncs; got != syncs {
		t.Fatalf("clean Sync flushed again: %d -> %d", syncs, got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync after Close: %v", err)
	}
	// The synced record must survive reopen.
	w2 := mustOpen(t, Options{Dir: filepath.Join(dir)})
	defer w2.Close()
	if got := w2.Stats().Records; got != 1 {
		t.Fatalf("reopened with %d records, want 1", got)
	}
}

// countSyncs replaces the log's fsync with a counter (optionally
// failing) so a test sees exactly how many times the file was synced.
func countSyncs(w *Log, fail func(call int) error) *int {
	calls := new(int)
	w.mu.Lock()
	w.syncFile = func(f *os.File) error {
		*calls++
		if fail != nil {
			if err := fail(*calls); err != nil {
				return err
			}
		}
		return f.Sync()
	}
	w.mu.Unlock()
	return calls
}

// TestGroupCommitSyncsPerGroup pins the group-commit policy contract:
// under SyncAlways the fsync count follows Commit calls — groups — not
// records; an Append is a group of one; a Commit with nothing unsynced
// is free. Deferred records are in the log (LSN, Scan) before their
// commit, just not yet durable.
func TestGroupCommitSyncsPerGroup(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncAlways})
	defer w.Close()
	calls := countSyncs(w, nil)

	const groups, perGroup = 5, 8
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			lsn, err := w.AppendDeferred(KindEnvelope, 1, []byte("grouped"))
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(g*perGroup + i + 1); lsn != want {
				t.Fatalf("deferred append got LSN %d, want %d", lsn, want)
			}
		}
		if *calls != g {
			t.Fatalf("group %d: %d fsyncs before its commit, want %d — a deferred append synced", g, *calls, g)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil { // nothing unsynced: no fsync
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Syncs != groups || *calls != groups {
		t.Fatalf("Syncs = %d (%d fsync calls) after %d groups of %d, want one per group", st.Syncs, *calls, groups, perGroup)
	}
	if st.RecordsAppended != groups*perGroup {
		t.Fatalf("RecordsAppended = %d, want %d", st.RecordsAppended, groups*perGroup)
	}
	if got := len(collect(t, w)); got != groups*perGroup {
		t.Fatalf("Scan saw %d records, want %d", got, groups*perGroup)
	}

	// Append = deferred append + commit: one fsync per record.
	for i := 0; i < 3; i++ {
		if _, err := w.Append(KindEnvelope, 1, []byte("solo")); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Stats().Syncs; got != groups+3 {
		t.Fatalf("Syncs = %d after 3 solo appends, want %d", got, groups+3)
	}

	// Whatever the policy, a group reaches the segment in one write(2).
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		w := mustOpen(t, Options{Dir: t.TempDir(), Sync: pol, SyncEvery: time.Hour})
		for g := 1; g <= groups; g++ {
			for i := 0; i < perGroup; i++ {
				if _, err := w.AppendDeferred(KindEnvelope, 1, []byte("grouped")); err != nil {
					t.Fatal(err)
				}
			}
			if got := w.Stats().Writes; got != uint64(g-1) {
				t.Fatalf("%v group %d: %d writes before its commit, want %d", pol, g, got, g-1)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := w.Stats().Writes; got != uint64(g) {
				t.Fatalf("%v: %d writes after %d groups of %d, want one per group", pol, got, g, perGroup)
			}
		}
		w.Close()
	}
}

// TestCommitIsFreeOffAlways: under SyncInterval and SyncNever the
// barrier is somebody else's job (the ticker, the OS) — Commit and
// Append never fsync.
func TestCommitIsFreeOffAlways(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncInterval, SyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			// An hour between ticks: the background syncer never fires.
			w := mustOpen(t, Options{Dir: t.TempDir(), Sync: pol, SyncEvery: time.Hour})
			defer w.Close()
			calls := countSyncs(w, nil)
			for i := 0; i < 4; i++ {
				if _, err := w.AppendDeferred(KindEnvelope, 1, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append(KindEnvelope, 1, []byte("y")); err != nil {
				t.Fatal(err)
			}
			if st := w.Stats(); *calls != 0 || st.Syncs != 0 {
				t.Fatalf("%d fsync calls, Syncs = %d under %v, want none", *calls, st.Syncs, pol)
			}
			if err := w.Sync(); err != nil { // the explicit flush still works
				t.Fatal(err)
			}
			if *calls != 1 {
				t.Fatalf("explicit Sync made %d fsync calls, want 1", *calls)
			}
		})
	}
}

// TestSyncFailureIsSticky is the fsync-gate regression test: after one
// failed fsync the kernel may have dropped the dirty pages and will
// report the next fsync clean, so the log must never ask again. The
// first error is latched and every later Append, AppendDeferred,
// Commit, Sync and Close returns it; the file is fsynced exactly once.
func TestSyncFailureIsSticky(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncAlways})
	eio := errors.New("injected EIO")
	calls := countSyncs(w, func(call int) error {
		if call == 1 {
			return eio
		}
		return nil // a retry would "succeed" — that is the bug being fenced
	})
	if _, err := w.AppendDeferred(KindEnvelope, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); !errors.Is(err, eio) {
		t.Fatalf("Commit = %v, want the injected error", err)
	}
	if _, err := w.Append(KindEnvelope, 1, []byte("b")); !errors.Is(err, eio) {
		t.Fatalf("Append after a failed fsync = %v, want the latched error", err)
	}
	if _, err := w.AppendDeferred(KindEnvelope, 1, []byte("c")); !errors.Is(err, eio) {
		t.Fatalf("AppendDeferred after a failed fsync = %v, want the latched error", err)
	}
	if err := w.Commit(); !errors.Is(err, eio) {
		t.Fatalf("second Commit = %v, want the latched error", err)
	}
	if err := w.Sync(); !errors.Is(err, eio) {
		t.Fatalf("Sync = %v, want the latched error", err)
	}
	if st := w.Stats(); st.Syncs != 0 || st.RecordsAppended != 1 {
		t.Fatalf("Syncs = %d, RecordsAppended = %d; want 0 and 1 (nothing after the failure is accepted)", st.Syncs, st.RecordsAppended)
	}
	if err := w.Close(); !errors.Is(err, eio) {
		t.Fatalf("Close = %v, want the latched error", err)
	}
	if *calls != 1 {
		t.Fatalf("the segment was fsynced %d times, want exactly 1 — a failed fsync was retried", *calls)
	}
}

// TestWriteFailureIsSticky: a failed segment write latches the same way
// (a short write leaves a torn record nothing may be appended behind),
// under a policy that never fsyncs on its own.
func TestWriteFailureIsSticky(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncNever})
	if _, err := w.Append(KindEnvelope, 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	w.f.Close() // every later write fails
	_, first := w.Append(KindEnvelope, 1, []byte("lost"))
	if first == nil {
		t.Fatal("Append on a closed segment file succeeded")
	}
	if _, err := w.AppendDeferred(KindEnvelope, 1, []byte("x")); err != first {
		t.Fatalf("AppendDeferred = %v, want the latched %v", err, first)
	}
	if err := w.Commit(); err != first {
		t.Fatalf("Commit = %v, want the latched %v", err, first)
	}
	if got := w.Stats().Records; got != 1 {
		t.Fatalf("Records = %d, want 1", got)
	}
	w.Close()
}
