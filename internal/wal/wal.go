package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// segMagic opens every segment file. The trailing version byte gates
// future layout changes; today only version 1 exists.
var segMagic = []byte{'C', 'M', 'H', 'W', 'A', 'L', 0, 1}

const (
	segMagicLen    = 8
	defaultSegSize = 8 << 20 // rotate segments at 8 MiB
	defaultSyncGap = 50 * time.Millisecond
	groupBufMax    = 64 << 10 // AppendDeferred writes the group buffer past this
)

// SyncPolicy selects when appended records are flushed to disk.
type SyncPolicy int

const (
	// SyncAlways makes Commit a durability barrier: it flushes the
	// segment, so every record appended before a Commit that returned nil
	// is on disk. Append commits each record by itself; AppendDeferred
	// followed by one Commit pays one flush for the whole group.
	// Combined with the transport's commit-before-deliver,
	// commit-before-ack ordering this is the lossless configuration
	// (DESIGN.md §11).
	SyncAlways SyncPolicy = iota
	// SyncInterval flushes on a background ticker (Options.SyncEvery):
	// bounded loss window, near-SyncNever append cost.
	SyncInterval
	// SyncNever leaves flushing to the OS; rotation and Close still
	// sync. Records since the last sync can be lost to a crash.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the cmhnode -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or never)", s)
}

// Options configures Open.
type Options struct {
	// Dir is the log directory, created if absent. Segments and
	// checkpoints for one host share it; two hosts must not.
	Dir string
	// SegmentBytes rotates the active segment once it reaches this
	// size (default 8 MiB). A new segment is preallocated to this size
	// where the filesystem allows it.
	SegmentBytes int64
	// Sync is the flush policy for appends.
	Sync SyncPolicy
	// SyncEvery is the SyncInterval ticker period (default 50ms).
	SyncEvery time.Duration
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Records is the number of committed records in the log, the
	// recovered prefix and the group buffer included.
	Records uint64
	// RecordsAppended counts appends by this process.
	RecordsAppended uint64
	// TornRecordsDropped counts corrupt or torn regions truncated at
	// Open — one per contiguous region, since record boundaries inside
	// a torn region are unknowable. A segment's zero tail is not torn.
	TornRecordsDropped uint64
	// Syncs counts flushes of the active segment.
	Syncs uint64
	// Writes counts the write(2) calls that carried records: one per group.
	Writes uint64
	// Segments is the live segment-file count.
	Segments int
	// CheckpointsTaken counts checkpoints written by this process.
	CheckpointsTaken uint64
	// LastCheckpointSeq is the sequence number of the newest
	// checkpoint on disk (0 when none).
	LastCheckpointSeq uint64
}

// Log is an append-only record log over numbered segment files, safe
// for concurrent use.
type Log struct {
	opts Options

	mu       sync.Mutex
	f        *os.File
	segIdx   uint64
	segIdxs  []uint64 // live segment indices, ascending
	segEnds  []int64  // each live segment's logical end; the active one's is segOff
	segOff   int64    // logical bytes of the active segment in the kernel
	count    uint64   // committed records (LSN of the last record)
	appended uint64
	torn     uint64
	syncs    uint64
	writes   uint64
	dirty    bool
	// dirPending marks a directory change not yet synced: a segment
	// created, truncated or removed. The next barrier that flushes the
	// segment syncs the directory too, so the segment's entry is as
	// durable as its records.
	dirPending bool
	buf        []byte // the group buffer: records not yet written
	pending    uint64 // records in buf
	// err latches the first write, flush or directory-sync failure.
	// After a failed flush the kernel may drop the dirty pages and
	// report the next flush clean, so a retry would declare records
	// durable that are not: every later Append, Commit and Sync returns
	// err instead.
	err error
	// syncFile flushes a segment (syncData: fdatasync on Linux) and
	// syncDir a directory (fsyncDir); fields so tests can count and
	// fail them.
	syncFile func(*os.File) error
	syncDir  func(string) error
	ckpts    uint64
	ckptSeq  uint64
	closed   bool

	stopSync chan struct{}
	syncDone chan struct{}
}

// Open opens (or creates) the log in opts.Dir, verifying every segment
// record by record under the segment-end rule (segment.go). The first
// torn or corrupt record ends the committed log: the file is truncated
// back to it and any later segments are deleted, so replay never sees an
// uncommitted suffix.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegSize
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = defaultSyncGap
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &Log{opts: opts, syncFile: syncData, syncDir: fsyncDir}
	if err := w.recover(); err != nil {
		return nil, err
	}
	if seqs, err := checkpointSeqs(opts.Dir); err != nil {
		return nil, err
	} else if len(seqs) > 0 {
		w.ckptSeq = seqs[len(seqs)-1]
	}
	if opts.Sync == SyncInterval {
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

func segName(idx uint64) string { return fmt.Sprintf("wal-%08d.seg", idx) }

// recover scans the directory, truncates the torn tail, and positions
// the log for appending at the active segment's logical end, which it
// preallocates again if it is short (a trimmed or truncated segment).
func (w *Log) recover() error {
	ents, err := os.ReadDir(w.opts.Dir)
	if err != nil {
		return err
	}
	var idxs []uint64
	for _, e := range ents {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%08d.seg", &idx); n == 1 {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })

	if len(idxs) == 0 {
		return w.startSegment(1)
	}
	var scratch []byte
	for at, idx := range idxs {
		path := filepath.Join(w.opts.Dir, segName(idx))
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		end, recs, torn, err := walkFile(path, fi.Size(), &scratch, nil)
		if err != nil {
			return err
		}
		w.count += recs
		w.segEnds = append(w.segEnds, end)
		if torn {
			// Torn or corrupt suffix: truncate here, drop later
			// segments entirely — their records follow the tear and
			// are not part of the committed log.
			w.torn++
			if err := os.Truncate(path, end); err != nil {
				return err
			}
			for _, later := range idxs[at+1:] {
				if err := os.Remove(filepath.Join(w.opts.Dir, segName(later))); err != nil {
					return err
				}
				w.torn++
			}
			idxs = idxs[:at+1]
			w.dirty, w.dirPending = true, true
			break
		}
	}
	w.segIdxs = idxs
	last := idxs[len(idxs)-1]
	f, err := os.OpenFile(filepath.Join(w.opts.Dir, segName(last)), os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	off := w.segEnds[len(w.segEnds)-1]
	if off < segMagicLen {
		// Header itself was torn; rewrite it.
		if _, err := f.WriteAt(segMagic, 0); err != nil {
			f.Close()
			return err
		}
		off = segMagicLen
		if err := f.Truncate(off); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() < w.opts.SegmentBytes {
		_ = preallocate(f, w.opts.SegmentBytes) // best effort, as in startSegment
	}
	w.f, w.segIdx, w.segOff = f, last, off
	return nil
}

// walkFile applies the segment-end rule (segWindow.walk) to the first
// size bytes of the segment file at path, reading through *scratch a
// chunk at a time.
func walkFile(path string, size int64, scratch *[]byte, fn func(kind byte, gen uint64, payload []byte) error) (end int64, records uint64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	s := segWindow{r: f, size: size, buf: *scratch}
	end, records, torn, err = s.walk(fn)
	*scratch = s.buf
	return end, records, torn, err
}

// startSegment creates segment idx, writes its header and preallocates
// it to SegmentBytes. Preallocation is best effort: where the
// filesystem refuses, the segment grows by appends instead. Either way
// the records are written the same, and the segment-end rule reads both.
func (w *Log) startSegment(idx uint64) error {
	f, err := os.OpenFile(filepath.Join(w.opts.Dir, segName(idx)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return err
	}
	_ = preallocate(f, w.opts.SegmentBytes)
	w.f, w.segIdx, w.segOff = f, idx, segMagicLen
	w.segIdxs = append(w.segIdxs, idx)
	w.segEnds = append(w.segEnds, segMagicLen)
	w.dirPending = true
	return nil
}

// Append commits one record and returns its LSN (1-based position in
// the log): AppendDeferred plus Commit under one hold of the lock.
// Under SyncAlways the record is durable on return.
func (w *Log) Append(kind byte, gen uint64, payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn, err := w.appendLocked(kind, gen, payload)
	if err == nil {
		err = w.commitLocked()
	}
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendDeferred adds one record to the group buffer and returns its
// LSN without making it durable under any policy: the record is in the
// log (Scan sees it, NextLSN counts it) until the buffer is written. A
// group of deferred appends followed by one Commit is the group-commit
// path: one write(2), and under SyncAlways one flush, for the group.
func (w *Log) AppendDeferred(kind byte, gen uint64, payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(kind, gen, payload)
}

// Commit is the policy's durability barrier over every record appended
// so far: it writes the group buffer, then flushes the segment under
// SyncAlways (not when nothing is unsynced); under SyncInterval and
// SyncNever the ticker or the OS bounds the loss window instead.
func (w *Log) Commit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: commit on closed log")
	}
	return w.commitLocked()
}

func (w *Log) appendLocked(kind byte, gen uint64, payload []byte) (uint64, error) {
	if w.closed {
		return 0, fmt.Errorf("wal: append on closed log")
	}
	if w.err != nil {
		return 0, w.err
	}
	if w.segOff+int64(len(w.buf)) >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.err = err
			return 0, err
		}
	}
	w.buf = appendRecord(w.buf, kind, gen, payload)
	w.pending++
	w.count++
	w.appended++
	if len(w.buf) >= groupBufMax {
		if err := w.writeLocked(); err != nil {
			return 0, err
		}
	}
	return w.count, nil
}

// writeLocked hands the group buffer to the kernel in one write(2). A
// failed or short write may leave a torn record nothing may follow: it
// latches the error and takes the group back out of the log.
func (w *Log) writeLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.count, w.appended = w.count-w.pending, w.appended-w.pending
		w.buf, w.pending = w.buf[:0], 0
		w.err = fmt.Errorf("wal: write segment %d: %w", w.segIdx, err)
		return w.err
	}
	w.segOff += int64(len(w.buf))
	w.buf, w.pending = w.buf[:0], 0
	w.writes++
	w.dirty = true
	return nil
}

func (w *Log) commitLocked() error {
	if w.opts.Sync == SyncAlways {
		return w.syncLocked()
	}
	if err := w.writeLocked(); err != nil {
		return err
	}
	return w.err
}

// rotateLocked seals the active segment: it flushes it, trims it to its
// logical end and starts the next one.
func (w *Log) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	w.trimLocked()
	if err := w.f.Close(); err != nil {
		return err
	}
	w.segEnds[len(w.segEnds)-1] = w.segOff
	return w.startSegment(w.segIdx + 1)
}

// trimLocked cuts the active segment's preallocated tail off at its
// logical end. It is housekeeping, not durability: the trim is not
// synced, and a crash before it lands leaves a zero tail that the
// segment-end rule reads as the segment's end. So a failure is ignored.
func (w *Log) trimLocked() {
	_ = w.f.Truncate(w.segOff)
}

func (w *Log) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if err := w.writeLocked(); err != nil {
		return err
	}
	if !w.dirty {
		return nil
	}
	if err := w.syncFile(w.f); err != nil {
		w.err = fmt.Errorf("wal: sync segment %d: %w", w.segIdx, err)
		return w.err
	}
	w.dirty = false
	w.syncs++
	if w.dirPending {
		if err := w.syncDir(w.opts.Dir); err != nil {
			w.err = fmt.Errorf("wal: sync directory %s: %w", w.opts.Dir, err)
			return w.err
		}
		w.dirPending = false
	}
	return nil
}

// Sync writes the group buffer and flushes any unsynced appends.
func (w *Log) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.syncLocked()
}

func (w *Log) syncLoop() {
	t := time.NewTicker(w.opts.SyncEvery)
	defer t.Stop()
	defer close(w.syncDone)
	for {
		select {
		case <-t.C:
			_ = w.Sync()
		case <-w.stopSync:
			return
		}
	}
}

// NextLSN returns the LSN the next Append will get. The checkpoint
// frontier recorded at a quiescent cut is NextLSN()-1: every committed
// record at or below it is reflected in the checkpointed state.
func (w *Log) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count + 1
}

// Scan replays every committed record in log order. The payload slice
// is only valid during the callback. Scanning writes the group buffer
// and reads the segments back from the filesystem, so it observes
// appends made by this process whether or not they have been flushed.
// It reads each segment up to its logical end and no further, a chunk
// at a time: never a preallocated tail.
func (w *Log) Scan(fn func(lsn uint64, kind byte, gen uint64, payload []byte) error) error {
	w.mu.Lock()
	err := w.writeLocked()
	idxs := append([]uint64(nil), w.segIdxs...)
	ends := append([]int64(nil), w.segEnds...)
	ends[len(ends)-1] = w.segOff
	w.mu.Unlock()
	if err != nil {
		return err
	}
	var (
		lsn     uint64
		scratch []byte
	)
	each := func(kind byte, gen uint64, payload []byte) error {
		lsn++
		return fn(lsn, kind, gen, payload)
	}
	for i, idx := range idxs {
		end, _, torn, err := walkFile(filepath.Join(w.opts.Dir, segName(idx)), ends[i], &scratch, each)
		if err != nil {
			return err
		}
		if torn || end != ends[i] {
			return fmt.Errorf("wal: segment %d offset %d: %w", idx, end, ErrBadRecord)
		}
	}
	return nil
}

// Stats returns a snapshot of the log's counters.
func (w *Log) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Records:            w.count,
		RecordsAppended:    w.appended,
		TornRecordsDropped: w.torn,
		Syncs:              w.syncs,
		Writes:             w.writes,
		Segments:           len(w.segIdxs),
		CheckpointsTaken:   w.ckpts,
		LastCheckpointSeq:  w.ckptSeq,
	}
}

// Close flushes the active segment, trims it to its logical end and
// closes it. Further appends fail.
func (w *Log) Close() error {
	if w.stopSync != nil {
		close(w.stopSync)
		<-w.syncDone
		w.stopSync = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	w.trimLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
