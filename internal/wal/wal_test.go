package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	w, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

func collect(t *testing.T, w *Log) []string {
	t.Helper()
	var got []string
	err := w.Scan(func(lsn uint64, kind byte, gen uint64, payload []byte) error {
		got = append(got, fmt.Sprintf("%d/%d/%d/%s", lsn, kind, gen, payload))
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return got
}

func TestAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	for i := 0; i < 10; i++ {
		lsn, err := w.Append(KindEnvelope, 7, []byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	got := collect(t, w)
	if len(got) != 10 || got[3] != "4/1/7/payload-3" {
		t.Fatalf("scan mismatch: %v", got)
	}
	if st := w.Stats(); st.Records != 10 || st.RecordsAppended != 10 || st.Syncs != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: committed records survive, LSNs continue.
	w2 := mustOpen(t, Options{Dir: dir})
	defer w2.Close()
	if got := collect(t, w2); len(got) != 10 {
		t.Fatalf("reopen lost records: %v", got)
	}
	if lsn, err := w2.Append(KindEnvelope, 8, []byte("more")); err != nil || lsn != 11 {
		t.Fatalf("append after reopen: lsn=%d err=%v", lsn, err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	payload := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 20; i++ {
		if _, err := w.Append(KindEnvelope, 1, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation, segments = %d", st.Segments)
	}
	if got := collect(t, w); len(got) != 20 {
		t.Fatalf("scan across segments: got %d records", len(got))
	}
	w.Close()

	w2 := mustOpen(t, Options{Dir: dir})
	defer w2.Close()
	if got := collect(t, w2); len(got) != 20 {
		t.Fatalf("reopen across segments: got %d records", len(got))
	}
}

// TestTornTailTruncation simulates a crash mid-write: a trailing
// partial record must be dropped on open without losing any committed
// record, and the log must keep working.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	for i := 0; i < 5; i++ {
		if _, err := w.Append(KindEnvelope, 3, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	w.Close()

	seg := filepath.Join(dir, segName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Append half of a valid record's bytes: a torn write.
	torn := appendRecord(nil, KindEnvelope, 3, []byte("never-committed"))
	if err := os.WriteFile(seg, append(full, torn[:len(torn)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, Options{Dir: dir})
	if st := w2.Stats(); st.TornRecordsDropped != 1 || st.Records != 5 {
		t.Fatalf("stats after torn tail = %+v", st)
	}
	if got := collect(t, w2); len(got) != 5 || got[4] != "5/1/3/rec-4" {
		t.Fatalf("committed records damaged: %v", got)
	}
	// The log must append cleanly after truncation.
	if lsn, err := w2.Append(KindEnvelope, 3, []byte("post-crash")); err != nil || lsn != 6 {
		t.Fatalf("append after truncation: lsn=%d err=%v", lsn, err)
	}
	w2.Close()
}

// TestBitFlipDropsSuffix corrupts a byte inside record 3 of 5: records
// 1-2 survive, the flipped record and everything after it are dropped
// (mid-log corruption means the suffix cannot be trusted).
func TestBitFlipDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	var offsets []int64
	for i := 0; i < 5; i++ {
		off := w.segOff
		if _, err := w.Append(KindEnvelope, 3, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
		offsets = append(offsets, off)
	}
	w.Close()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[2]+recHdrLen+recBodyMin] ^= 0x40 // flip a payload bit in record 3
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, Options{Dir: dir})
	defer w2.Close()
	if got := collect(t, w2); len(got) != 2 || got[1] != "2/1/3/rec-1" {
		t.Fatalf("prefix after bit flip: %v", got)
	}
	if st := w2.Stats(); st.TornRecordsDropped != 1 {
		t.Fatalf("stats after bit flip = %+v", st)
	}
}

// TestTornEarlierSegmentDropsLater ensures corruption in segment k
// also discards segments >k: they follow the tear in log order.
func TestTornEarlierSegmentDropsLater(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 128})
	for i := 0; i < 12; i++ {
		if _, err := w.Append(KindEnvelope, 1, bytes.Repeat([]byte("y"), 40)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if w.Stats().Segments < 3 {
		t.Skip("need at least 3 segments for this test")
	}
	w.Close()

	seg2 := filepath.Join(dir, segName(2))
	data, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg2, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, Options{Dir: dir})
	defer w2.Close()
	st := w2.Stats()
	if st.Segments != 2 {
		t.Fatalf("later segments kept: %+v", st)
	}
	if st.TornRecordsDropped < 2 {
		t.Fatalf("expected torn region + dropped segment counted: %+v", st)
	}
}

func TestCheckpointWriteLoadFallback(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	if p, seq, err := w.LoadCheckpoint(); err != nil || p != nil || seq != 0 {
		t.Fatalf("empty load = %v/%d/%v", p, seq, err)
	}
	if seq, err := w.WriteCheckpoint([]byte("state-v1")); err != nil || seq != 1 {
		t.Fatalf("write 1: seq=%d err=%v", seq, err)
	}
	if seq, err := w.WriteCheckpoint([]byte("state-v2")); err != nil || seq != 2 {
		t.Fatalf("write 2: seq=%d err=%v", seq, err)
	}
	p, seq, err := w.LoadCheckpoint()
	if err != nil || seq != 2 || string(p) != "state-v2" {
		t.Fatalf("load = %q/%d/%v", p, seq, err)
	}

	// Corrupt the newest checkpoint: load falls back to the previous.
	path := filepath.Join(dir, ckptName(2))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0x01
	os.WriteFile(path, data, 0o644)
	p, seq, err = w.LoadCheckpoint()
	if err != nil || seq != 1 || string(p) != "state-v1" {
		t.Fatalf("fallback load = %q/%d/%v", p, seq, err)
	}
	w.Close()

	// Reopen continues the checkpoint sequence.
	w2 := mustOpen(t, Options{Dir: dir})
	defer w2.Close()
	if seq, err := w2.WriteCheckpoint([]byte("state-v3")); err != nil || seq != 3 {
		t.Fatalf("write after reopen: seq=%d err=%v", seq, err)
	}
}

func TestCheckpointPruning(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	defer w.Close()
	for i := 0; i < 5; i++ {
		if _, err := w.WriteCheckpoint([]byte{byte(i)}); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	seqs, err := checkpointSeqs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != keepCheckpoints || seqs[len(seqs)-1] != 5 {
		t.Fatalf("pruning kept %v", seqs)
	}
}

func TestSyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncInterval, SyncEvery: time.Millisecond})
	if _, err := w.Append(KindEnvelope, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Close stops the ticker and performs a final sync.
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2 := mustOpen(t, Options{Dir: dir})
	defer w2.Close()
	if got := collect(t, w2); len(got) != 1 {
		t.Fatalf("interval-synced record lost: %v", got)
	}
}

// TestGroupCutAtEveryByte is the crash semantics of the group buffer: a
// committed group reaches the segment in one write, and a crash can cut
// that write at any byte. Reopening must keep exactly the records that
// ended before the cut, count the cut as one torn region, and continue
// the LSNs from the kept prefix.
func TestGroupCutAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncNever})
	if _, err := w.Append(KindEnvelope, 2, []byte("before")); err != nil {
		t.Fatal(err)
	}
	ends := []int64{w.segOff} // segment offset after each whole record
	for i := 0; i < 6; i++ {
		if _, err := w.AppendDeferred(KindEnvelope, 2, bytes.Repeat([]byte{byte('a' + i)}, i*3)); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, ends[len(ends)-1]+int64(len(appendRecord(nil, KindEnvelope, 2, make([]byte, i*3)))))
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Writes != 2 || w.segOff != ends[len(ends)-1] {
		t.Fatalf("Writes = %d, segOff = %d; want 2 and %d", st.Writes, w.segOff, ends[len(ends)-1])
	}
	w.Close()
	full, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}

	for cut := ends[0] + 1; cut < ends[len(ends)-1]; cut++ {
		whole := uint64(0)
		for _, end := range ends {
			if end <= cut {
				whole++
			}
		}
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, segName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2 := mustOpen(t, Options{Dir: cdir, Sync: SyncNever})
		st := w2.Stats()
		torn := uint64(1)
		if ends[whole-1] == cut {
			torn = 0 // the cut fell on a record boundary: nothing torn
		}
		if st.Records != whole || st.TornRecordsDropped != torn {
			t.Fatalf("cut at %d: Records = %d, torn = %d; want %d and %d", cut, st.Records, st.TornRecordsDropped, whole, torn)
		}
		if lsn := w2.NextLSN(); lsn != whole+1 {
			t.Fatalf("cut at %d: NextLSN = %d, want %d", cut, lsn, whole+1)
		}
		if lsn, err := w2.Append(KindEnvelope, 3, []byte("after")); err != nil || lsn != whole+1 {
			t.Fatalf("cut at %d: append after reopen: lsn=%d err=%v", cut, lsn, err)
		}
		if got := collect(t, w2); uint64(len(got)) != whole+1 || got[0] != "1/1/2/before" {
			t.Fatalf("cut at %d: scan = %v", cut, got)
		}
		w2.Close()
	}
}

// TestCheckpointFrontierInFile: a checkpoint's frontier (NextLSN()-1)
// must never be ahead of the segment file, so WriteCheckpoint writes
// the group buffer even with no Commit. A log abandoned without Close
// afterwards keeps every record at or below the frontier; the deferred
// records appended after the checkpoint were never written and are gone.
func TestCheckpointFrontierInFile(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncNever})
	defer w.Close()
	for i := 0; i < 5; i++ {
		if _, err := w.AppendDeferred(KindEnvelope, 1, []byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	frontier := w.NextLSN() - 1
	if _, err := w.WriteCheckpoint([]byte("state")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.AppendDeferred(KindEnvelope, 1, []byte("post")); err != nil {
			t.Fatal(err)
		}
	}

	w2 := mustOpen(t, Options{Dir: dir, Sync: SyncNever})
	defer w2.Close()
	if got := w2.Stats().Records; got != frontier {
		t.Fatalf("reopened with %d records, want the frontier %d", got, frontier)
	}
	if got := collect(t, w2); got[frontier-1] != fmt.Sprintf("%d/1/1/pre-4", frontier) {
		t.Fatalf("scan = %v", got)
	}
}
