package wal

import (
	"bytes"
	"encoding/binary"
	"io"
)

// The segment-end rule. A segment is preallocated to its full size when
// it is created, so the bytes after its last record are normally zeros,
// not the end of the file. A segment therefore ends at its last valid
// record when every byte after that record is zero: that zero tail is
// unused space, not damage. Any non-zero byte after the last valid
// record — a torn or corrupt record, or a stale record behind a hole of
// zeros — makes the segment torn from that record's end on. Recovery,
// Scan and the fuzzers all go through segWindow.walk, so the rule exists
// once.

// readChunk is how much a segWindow reads at a time, so a segment's
// zero tail is checked without ever being loaded whole.
const readChunk = 64 << 10

// zeroChunk is what a zero tail is compared against, a chunk at a time.
var zeroChunk [readChunk]byte

// segWindow reads a segment forward through a buffer that holds at most
// one chunk or one record, whichever is larger.
type segWindow struct {
	r      io.ReaderAt
	size   int64  // bytes of the segment to read
	buf    []byte // scratch, reusable across segments; buf[lo:hi] holds the bytes at off
	lo, hi int
	off    int64 // segment offset of buf[lo]
}

// peek returns the next n bytes without consuming them; ok is false
// when fewer than n bytes of the segment remain.
func (s *segWindow) peek(n int) (b []byte, ok bool, err error) {
	if s.hi-s.lo >= n {
		return s.buf[s.lo : s.lo+n], true, nil
	}
	if s.off+int64(n) > s.size {
		return nil, false, nil
	}
	s.hi = copy(s.buf, s.buf[s.lo:s.hi])
	s.lo = 0
	want := int64(n)
	if want < readChunk {
		want = readChunk
	}
	if rest := s.size - s.off; want > rest {
		want = rest
	}
	if int64(len(s.buf)) < want {
		grown := make([]byte, want)
		copy(grown, s.buf[:s.hi])
		s.buf = grown
	}
	m, err := s.r.ReadAt(s.buf[s.hi:want], s.off+int64(s.hi))
	s.hi += m
	if s.hi < n {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF // the file is shorter than size
		}
		return nil, false, err
	}
	return s.buf[:n], true, nil
}

func (s *segWindow) advance(n int) {
	s.lo += n
	s.off += int64(n)
}

// walk applies the segment-end rule to the segment. fn, when non-nil,
// sees each valid record in order; its payload is only valid during the
// call. walk returns the segment's logical end (the last valid record's
// end, 0 when the header is bad), the number of valid records, and torn:
// a bad header, or a non-zero byte after the last valid record.
func (s *segWindow) walk(fn func(kind byte, gen uint64, payload []byte) error) (end int64, records uint64, torn bool, err error) {
	magic, ok, err := s.peek(segMagicLen)
	if err != nil || !ok || !bytes.Equal(magic, segMagic) {
		return 0, 0, err == nil, err
	}
	s.advance(segMagicLen)
	for {
		hdr, ok, err := s.peek(recHdrLen)
		if err != nil {
			return 0, 0, false, err
		}
		if !ok {
			break
		}
		n := int(binary.LittleEndian.Uint32(hdr))
		if n < recBodyMin || n > recBodyMax {
			break
		}
		rec, ok, err := s.peek(recHdrLen + n)
		if err != nil {
			return 0, 0, false, err
		}
		if !ok {
			break
		}
		kind, gen, payload, used, perr := parseRecord(rec)
		if perr != nil {
			break
		}
		if fn != nil {
			if err := fn(kind, gen, payload); err != nil {
				return 0, 0, false, err
			}
		}
		s.advance(used)
		records++
	}
	end = s.off
	for s.off < s.size {
		n := int64(readChunk)
		if rest := s.size - s.off; n > rest {
			n = rest
		}
		b, _, err := s.peek(int(n))
		if err != nil {
			return 0, 0, false, err
		}
		if !bytes.Equal(b, zeroChunk[:n]) {
			return end, records, true, nil
		}
		s.advance(int(n))
	}
	return end, records, false, nil
}
