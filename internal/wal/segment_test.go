package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// segImage builds a segment image: the header, then one record per
// payload, each of generation 1.
func segImage(payloads ...string) []byte {
	b := append([]byte(nil), segMagic...)
	for _, p := range payloads {
		b = appendRecord(b, KindEnvelope, 1, []byte(p))
	}
	return b
}

// writeSeg writes segment idx of dir as image followed by zeros bytes of
// zero tail.
func writeSeg(t *testing.T, dir string, idx uint64, image []byte, zeros int) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, segName(idx)), append(image, make([]byte, zeros)...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// preallocates reports whether this filesystem supports preallocate;
// where it does not, segments grow by appends and the size checks that
// depend on it are skipped.
func preallocates(t *testing.T) bool {
	f, err := os.Create(filepath.Join(t.TempDir(), "probe"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return preallocate(f, 4096) == nil
}

// tailIsZero reports whether every byte of segment idx from off on is
// zero, and returns the segment's size.
func tailIsZero(t *testing.T, dir string, idx uint64, off int64) (bool, int64) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, segName(idx)))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data[off:], []byte{0}) == len(data)-int(off), int64(len(data))
}

// TestNewSegmentIsPreallocated: a new segment's size is SegmentBytes
// from its creation on, appends leave it there, and Close trims it to
// its logical end.
func TestNewSegmentIsPreallocated(t *testing.T) {
	if !preallocates(t) {
		t.Skip("filesystem does not support preallocation")
	}
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 1 << 20, Sync: SyncAlways})
	for i := 0; i < 3; i++ {
		if _, err := w.Append(KindEnvelope, 1, []byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	end := w.segOff
	if zero, size := tailIsZero(t, dir, 1, end); !zero || size != 1<<20 {
		t.Fatalf("open segment is %d bytes (zero tail %v), want 1 MiB with a zero tail", size, zero)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, size := tailIsZero(t, dir, 1, end); size != end {
		t.Fatalf("closed segment is %d bytes, want its logical end %d", size, end)
	}
}

// TestZeroTailIsNotTorn is a crash after a group's flush: the segment
// still has its preallocated zero tail. Every record is kept, nothing is
// counted torn, and the next append lands at the logical end.
func TestZeroTailIsNotTorn(t *testing.T) {
	dir := t.TempDir()
	image := segImage("a", "b", "c")
	writeSeg(t, dir, 1, image, 4096)

	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 8192, Sync: SyncAlways})
	if st := w.Stats(); st.Records != 3 || st.TornRecordsDropped != 0 {
		t.Fatalf("stats over a zero tail = %+v, want 3 records and none torn", st)
	}
	if w.segOff != int64(len(image)) {
		t.Fatalf("append offset %d, want the logical end %d", w.segOff, len(image))
	}
	if lsn, err := w.Append(KindEnvelope, 1, []byte("d")); err != nil || lsn != 4 {
		t.Fatalf("append after a zero tail: lsn=%d err=%v", lsn, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if want := segImage("a", "b", "c", "d"); !bytes.Equal(data, want) {
		t.Fatalf("segment after the append is\n%x\nwant\n%x", data, want)
	}
}

// TestTornRecordBeforeZeros is a crash inside a group's write on a
// preallocated segment: half a record, then the zero tail. The log
// truncates at the tear, counts it once, and preallocates the segment
// again, so the torn bytes are gone and the tail is zeros.
func TestTornRecordBeforeZeros(t *testing.T) {
	dir := t.TempDir()
	image := segImage("a", "b")
	torn := appendRecord(nil, KindEnvelope, 1, []byte("never-committed"))
	writeSeg(t, dir, 1, append(append([]byte(nil), image...), torn[:len(torn)/2]...), 2048)

	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 8192, Sync: SyncAlways})
	defer w.Close()
	if st := w.Stats(); st.Records != 2 || st.TornRecordsDropped != 1 {
		t.Fatalf("stats = %+v, want 2 records and 1 torn region", st)
	}
	zero, size := tailIsZero(t, dir, 1, int64(len(image)))
	if !zero {
		t.Fatal("the torn bytes survived recovery")
	}
	if preallocates(t) && size != 8192 {
		t.Fatalf("recovered segment is %d bytes, want it preallocated to 8192", size)
	}
	if lsn, err := w.Append(KindEnvelope, 1, []byte("c")); err != nil || lsn != 3 {
		t.Fatalf("append after truncation: lsn=%d err=%v", lsn, err)
	}
	if got := collect(t, w); len(got) != 3 || got[2] != "3/1/1/c" {
		t.Fatalf("scan = %v", got)
	}
}

// TestHoleBeforeStaleRecord: a hole of zeros and then a valid record —
// the shape of a group whose write reached the disk only past its first
// block. The record is stale: it follows a gap, so the log ends at the
// hole, the region counts as torn, and the record is never replayed.
func TestHoleBeforeStaleRecord(t *testing.T) {
	dir := t.TempDir()
	image := segImage("a", "b")
	stale := appendRecord(nil, KindEnvelope, 1, []byte("stale"))
	writeSeg(t, dir, 1, append(append(append([]byte(nil), image...), make([]byte, 100)...), stale...), 1000)

	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 8192, Sync: SyncAlways})
	defer w.Close()
	if st := w.Stats(); st.Records != 2 || st.TornRecordsDropped != 1 {
		t.Fatalf("stats = %+v, want 2 records and 1 torn region", st)
	}
	if zero, _ := tailIsZero(t, dir, 1, int64(len(image))); !zero {
		t.Fatal("the stale record survived recovery")
	}
	if _, err := w.Append(KindEnvelope, 1, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w); len(got) != 3 || got[2] != "3/1/1/c" {
		t.Fatalf("scan = %v, want a, b, c and never the stale record", got)
	}
}

// TestSealedSegmentZeroTail is a crash between a sealed segment's last
// flush and its trim: segment 1 keeps its zero tail behind segment 2.
// Its records and every later segment are kept, in order.
func TestSealedSegmentZeroTail(t *testing.T) {
	dir := t.TempDir()
	writeSeg(t, dir, 1, segImage("a", "b"), 4096)
	writeSeg(t, dir, 2, segImage("c"), 0)
	writeSeg(t, dir, 3, segImage("d", "e"), 512)

	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 8192, Sync: SyncAlways})
	defer w.Close()
	if st := w.Stats(); st.Records != 5 || st.TornRecordsDropped != 0 || st.Segments != 3 {
		t.Fatalf("stats = %+v, want 5 records in 3 segments and none torn", st)
	}
	if _, err := w.Append(KindEnvelope, 1, []byte("f")); err != nil {
		t.Fatal(err)
	}
	want := []string{"1/1/1/a", "2/1/1/b", "3/1/1/c", "4/1/1/d", "5/1/1/e", "6/1/1/f"}
	if got := collect(t, w); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
}

// countDirSyncs replaces the log's directory sync with a counter,
// optionally failing.
func countDirSyncs(w *Log, fail error) *int {
	calls := new(int)
	w.mu.Lock()
	w.syncDir = func(dir string) error {
		*calls++
		if fail != nil {
			return fail
		}
		return fsyncDir(dir)
	}
	w.mu.Unlock()
	return calls
}

// TestDirectorySyncedOncePerSegment: a segment's directory entry is made
// durable by the first barrier that flushes the segment, once per
// segment. Open syncs no directory: the counter goes in after Open, and
// still sees segment 1's sync, so Open left it pending. Reopening an
// intact log changes no directory entry, so its barriers sync none.
func TestDirectorySyncedOncePerSegment(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 256, Sync: SyncAlways})
	calls := countDirSyncs(w, nil)
	payload := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 20; i++ {
		if _, err := w.Append(KindEnvelope, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("%d segments, want rotation", st.Segments)
	}
	if *calls != st.Segments || st.Syncs != 20 {
		t.Fatalf("%d directory syncs and %d segment syncs over %d segments and 20 appends under always, want one directory sync per segment and one segment sync per append",
			*calls, st.Syncs, st.Segments)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 4096, Sync: SyncAlways})
	defer w2.Close()
	calls = countDirSyncs(w2, nil)
	if _, err := w2.Append(KindEnvelope, 1, payload); err != nil {
		t.Fatal(err)
	}
	if *calls != 0 {
		t.Fatalf("appending to a reopened intact log synced the directory %d times, want 0", *calls)
	}
}

// TestDirectorySyncFailureIsSticky: a failed directory sync latches like
// a failed flush: the barrier that hit it and everything after return it.
func TestDirectorySyncFailureIsSticky(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncAlways})
	eio := errors.New("injected EIO")
	calls := countDirSyncs(w, eio)
	if _, err := w.Append(KindEnvelope, 1, []byte("a")); !errors.Is(err, eio) {
		t.Fatalf("Append = %v, want the injected error", err)
	}
	if _, err := w.Append(KindEnvelope, 1, []byte("b")); !errors.Is(err, eio) {
		t.Fatalf("Append after a failed directory sync = %v, want the latched error", err)
	}
	if err := w.Sync(); !errors.Is(err, eio) {
		t.Fatalf("Sync = %v, want the latched error", err)
	}
	if err := w.Close(); !errors.Is(err, eio) {
		t.Fatalf("Close = %v, want the latched error", err)
	}
	if *calls != 1 {
		t.Fatalf("the directory was synced %d times, want exactly 1", *calls)
	}
}

// TestRecoveryTruncationSyncsDirectory: after recovery truncates a torn
// segment and removes the ones behind it, the first barrier syncs the
// segment and the directory, even with nothing new to write.
func TestRecoveryTruncationSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	writeSeg(t, dir, 1, append(segImage("a"), 0xff), 0)
	writeSeg(t, dir, 2, segImage("b"), 0)
	w := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	defer w.Close()
	if st := w.Stats(); st.Segments != 1 || st.TornRecordsDropped != 2 {
		t.Fatalf("stats = %+v, want 1 segment and 2 torn regions", st)
	}
	calls := countDirSyncs(w, nil)
	files := countSyncs(w, nil)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if *calls != 1 || *files != 1 {
		t.Fatalf("first barrier after a truncating recovery: %d directory and %d segment syncs, want 1 and 1", *calls, *files)
	}
}

// TestOpenScanReadsLogicalBytes: reopening a log whose active segment is
// preallocated to 64 MiB and holds a few KiB of records — a crash before
// Close trimmed it — reads the zero tail a chunk at a time and Scan reads
// only the records: together they allocate well under 1 MiB.
func TestOpenScanReadsLogicalBytes(t *testing.T) {
	if raceBuild {
		t.Skip("reads TotalAlloc, which the race detector inflates")
	}
	if !preallocates(t) {
		t.Skip("filesystem does not support preallocation")
	}
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 64 << 20, Sync: SyncNever}
	w := mustOpen(t, opts)
	defer w.Close()
	payload := bytes.Repeat([]byte("p"), 100)
	for i := 0; i < 40; i++ {
		if _, err := w.Append(KindEnvelope, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, size := tailIsZero(t, dir, 1, w.segOff); size != 64<<20 {
		t.Fatalf("segment is %d bytes, want 64 MiB preallocated", size)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	err = w2.Scan(func(uint64, byte, uint64, []byte) error { records++; return nil })
	runtime.ReadMemStats(&after)
	w2.Close()
	if err != nil || records != 40 {
		t.Fatalf("Scan saw %d records (%v), want 40", records, err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Open+Scan over a 64 MiB segment allocated %d B", got)
	if got >= 1<<20 {
		t.Fatalf("Open+Scan allocated %d B over a 64 MiB preallocated segment, want < 1 MiB", got)
	}
}
