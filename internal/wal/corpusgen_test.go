package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func TestGenCorpus(t *testing.T) {
	if os.Getenv("WAL_GEN_CORPUS") == "" {
		t.Skip("set WAL_GEN_CORPUS=1 to regenerate the committed fuzz seeds")
	}
	clean := appendRecord(nil, KindEnvelope, 42, []byte("seed-envelope-frame"))
	flipped := append([]byte(nil), clean...)
	flipped[recHdrLen+2] ^= 0x08
	record := [][]byte{
		clean,
		appendRecord(nil, KindEnvelope, 0, nil),
		clean[:len(clean)-3],
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1},
		flipped,
		append(append([]byte(nil), clean...), clean...),
	}
	good := append([]byte(nil), segMagic...)
	good = appendRecord(good, KindEnvelope, 7, []byte("one"))
	good = appendRecord(good, KindEnvelope, 7, []byte("two"))
	segment := [][]byte{
		good,
		good[:len(good)-2],
		[]byte("CMHWAL"),
		append([]byte(nil), segMagic...),
	}
	segment = append(segment, segmentEndSeeds(good)...)
	for name, seeds := range map[string][][]byte{"FuzzWALRecord": record, "FuzzWALSegment": segment} {
		dir := filepath.Join("testdata", "fuzz", name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
