package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRecord drives the record parser with arbitrary bytes — torn
// prefixes, bit flips, hostile length fields — and checks the parser's
// contract: it never panics, never over-consumes, errors only with its
// two sentinels, and round-trips every record it accepts.
func FuzzWALRecord(f *testing.F) {
	// Committed seeds: a clean record, an empty payload, a torn tail,
	// a length-field attack, and a CRC flip.
	clean := appendRecord(nil, KindEnvelope, 42, []byte("seed-envelope-frame"))
	f.Add(clean)
	f.Add(appendRecord(nil, KindEnvelope, 0, nil))
	f.Add(clean[:len(clean)-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})
	flipped := append([]byte(nil), clean...)
	flipped[recHdrLen+2] ^= 0x08
	f.Add(flipped)
	f.Add(append(append([]byte(nil), clean...), clean...))

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, gen, payload, n, err := parseRecord(data)
		if err != nil {
			if err != ErrTornRecord && err != ErrBadRecord {
				t.Fatalf("unexpected error type: %v", err)
			}
			if n != 0 {
				t.Fatalf("error consumed %d bytes", n)
			}
			return
		}
		if n < recHdrLen+recBodyMin || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Accepted records must re-encode to the exact bytes parsed:
		// the log's scan/truncate logic depends on byte-precise
		// framing.
		re := appendRecord(nil, kind, gen, payload)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data[:n], re)
		}
	})
}

// FuzzWALSegment feeds whole segment images to the open-time verifier:
// whatever the bytes, it must report a keep-offset inside the data and
// a record count consistent with re-parsing the kept prefix.
func FuzzWALSegment(f *testing.F) {
	good := append([]byte(nil), segMagic...)
	good = appendRecord(good, KindEnvelope, 7, []byte("one"))
	good = appendRecord(good, KindEnvelope, 7, []byte("two"))
	f.Add(good)
	f.Add(good[:len(good)-2])
	f.Add([]byte("CMHWAL"))
	f.Add(append([]byte(nil), segMagic...))
	for _, s := range segmentEndSeeds(good) {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		keep, records, ok := verifySegment(data)
		if keep < 0 || keep > len(data) {
			t.Fatalf("keep=%d out of range [0,%d]", keep, len(data))
		}
		if ok && keep != len(data) {
			t.Fatalf("ok but keep=%d != len=%d", keep, len(data))
		}
		if keep > 0 {
			// The kept prefix must itself verify cleanly.
			k2, r2, ok2 := verifySegment(data[:keep])
			if !ok2 || k2 != keep || r2 != records {
				t.Fatalf("kept prefix unstable: %d/%d/%v vs %d/%d", k2, r2, ok2, keep, records)
			}
		}
	})
}

// FuzzWALGroupCut commits groups of deferred records, each group in one
// write(2), then cuts the segment at an arbitrary byte — a crash inside
// some group's write — and reopens. The cut may be followed by hole zero
// bytes, the preallocated tail a crash leaves behind, and with stale set
// also by a copy of the log's last record: a stale record behind a hole.
// Whatever the sizes, payloads, cut and tail, reopening must not panic
// and must keep exactly the records the image holds whole, in order.
func FuzzWALGroupCut(f *testing.F) {
	f.Add([]byte{3}, []byte("payload"), uint32(40), uint16(0), false)
	f.Add([]byte{1, 4, 2}, []byte{0, 7, 31}, uint32(5), uint16(0), false)
	f.Add([]byte{8, 8}, []byte("x"), uint32(1<<20), uint16(0), false)
	f.Add([]byte{}, []byte{}, uint32(0), uint16(0), false)
	// Zero tails: after a whole group, inside a record, and inside the header.
	f.Add([]byte{1, 4, 2}, []byte{0, 7, 31}, uint32(1<<20), uint16(4096), false)
	f.Add([]byte{3}, []byte("payload"), uint32(40), uint16(300), false)
	f.Add([]byte{2}, []byte("h"), uint32(3), uint16(64), false)
	// Holes before a stale record: at the end of the log and after a cut.
	f.Add([]byte{2, 3}, []byte("stale"), uint32(1<<20), uint16(1), true)
	f.Add([]byte{2, 3}, []byte("stale"), uint32(61), uint16(512), true)

	f.Fuzz(func(t *testing.T, groups, seed []byte, cut uint32, hole uint16, stale bool) {
		if len(groups) > 8 {
			groups = groups[:8]
		}
		dir := t.TempDir()
		w, err := Open(Options{Dir: dir, Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		var payloads [][]byte
		ends := []int{segMagicLen} // segment offset after each record
		for _, g := range groups {
			for i := 0; i <= int(g%8); i++ {
				n := 0
				if len(seed) > 0 {
					n = int(seed[len(payloads)%len(seed)]) % 48
				}
				p := bytes.Repeat([]byte{byte(len(payloads))}, n)
				if _, err := w.AppendDeferred(KindEnvelope, uint64(len(groups)), p); err != nil {
					t.Fatal(err)
				}
				payloads = append(payloads, p)
				ends = append(ends, ends[len(ends)-1]+recHdrLen+recBodyMin+n)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, segName(1))
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != ends[len(ends)-1] {
			t.Fatalf("segment is %d bytes, want %d", len(data), ends[len(ends)-1])
		}
		at := int(cut % uint32(len(data)+1))
		// A record survives when the image holds all of its bytes, the
		// header's included. Without a tail that means it ended at or
		// before the cut; with a zero tail, a record cut inside a run of
		// zeros is whole again, since the zeros the crash left are the
		// bytes it was missing.
		wholeIn := func(image []byte) int {
			whole := 0
			for k, end := range ends {
				start := 0
				if k > 0 {
					start = ends[k-1]
				}
				if end > len(image) || !bytes.Equal(image[start:end], data[start:end]) {
					break
				}
				whole = k
			}
			return whole
		}
		image := append(append([]byte(nil), data[:at]...), make([]byte, hole)...)
		whole := wholeIn(image)
		// The stale record goes behind the hole only while some of the
		// hole is left over; a hole that the last whole record absorbed
		// is no hole.
		if stale && hole > 0 && len(ends) > 1 && ends[whole] < len(image) {
			image = append(image, data[ends[len(ends)-2]:]...)
			whole = wholeIn(image)
		}
		if err := os.WriteFile(seg, image, 0o644); err != nil {
			t.Fatal(err)
		}

		w2, err := Open(Options{Dir: dir, Sync: SyncNever})
		if err != nil {
			t.Fatalf("reopen after a cut at %d: %v", at, err)
		}
		defer w2.Close()
		if got := w2.Stats().Records; got != uint64(whole) {
			t.Fatalf("cut at %d of %d: Records = %d, want %d", at, len(data), got, whole)
		}
		var i int
		err = w2.Scan(func(lsn uint64, _ byte, _ uint64, payload []byte) error {
			if lsn != uint64(i+1) || !bytes.Equal(payload, payloads[i]) {
				return fmt.Errorf("record %d: lsn %d payload %x, want %x", i, lsn, payload, payloads[i])
			}
			i++
			return nil
		})
		if err != nil || i != whole {
			t.Fatalf("cut at %d: scanned %d of %d records: %v", at, i, whole, err)
		}
	})
}

// segmentEndSeeds are FuzzWALSegment's segment-end shapes built on good,
// a valid image: a zero tail, a torn record before zeros, a hole before
// a stale record, and a header followed only by zeros.
func segmentEndSeeds(good []byte) [][]byte {
	zeros := func(n int) []byte { return make([]byte, n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	rec := appendRecord(nil, KindEnvelope, 7, []byte("three"))
	return [][]byte{
		cat(good, zeros(64)),
		cat(good, rec[:len(rec)/2], zeros(32)),
		cat(good, zeros(16), rec, zeros(8)),
		cat(segMagic, zeros(40)),
	}
}

// verifySegment applies the segment-end rule to one segment image and
// reports how many of its bytes recovery keeps, the valid record count,
// and whether the segment is intact. An intact segment — valid records,
// then nothing or zeros — keeps every byte; a torn one keeps the bytes up
// to its last valid record's end.
func verifySegment(data []byte) (keep int, records uint64, ok bool) {
	s := segWindow{r: bytes.NewReader(data), size: int64(len(data))}
	end, records, torn, _ := s.walk(nil)
	if torn {
		return int(end), records, false
	}
	return len(data), records, true
}
