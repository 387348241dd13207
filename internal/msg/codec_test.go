package msg

// Tests for the buffered (batched) encode path.

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/id"
)

// countingWriter counts Write calls, standing in for syscalls on a
// socket.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func TestEncodeBufferedBatchRoundTrip(t *testing.T) {
	const n = 50
	w := &countingWriter{}
	enc := NewEncoder(w)
	for i := 0; i < n; i++ {
		env := Envelope{
			From: 1, To: 2, Seq: uint64(i + 1), Epoch: 7,
			Msg: Probe{Tag: id.Tag{Initiator: 1, N: uint64(i + 1)}},
		}
		if err := enc.EncodeBuffered(env); err != nil {
			t.Fatalf("EncodeBuffered(%d): %v", i, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	// The whole batch must reach the stream in far fewer writes than
	// frames (the per-frame Encode path does one flush per frame).
	if w.writes >= n {
		t.Fatalf("batch of %d frames took %d writes, want coalescing", n, w.writes)
	}

	dec := NewDecoder(&w.buf)
	for i := 0; i < n; i++ {
		env, err := dec.Decode()
		if err != nil {
			t.Fatalf("Decode(%d): %v", i, err)
		}
		if env.Seq != uint64(i+1) {
			t.Fatalf("frame %d has Seq %d, want %d", i, env.Seq, i+1)
		}
		p, ok := env.Msg.(Probe)
		if !ok || p.Tag.N != uint64(i+1) {
			t.Fatalf("frame %d decoded as %#v", i, env.Msg)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("after batch: err = %v, want io.EOF", err)
	}
}

func TestEncodeBufferedRejectsNilMessage(t *testing.T) {
	for _, f := range []WireFormat{WireBinary, WireGob} {
		enc := NewEncoderFormat(&bytes.Buffer{}, f)
		if err := enc.EncodeBuffered(Envelope{From: 1, To: 2}); !errors.Is(err, ErrNilMessage) {
			t.Fatalf("%v: untyped nil: err = %v, want ErrNilMessage", f, err)
		}
		// A typed nil compares unequal to nil, so an == nil guard would
		// wave it through and fail confusingly downstream; the tag
		// dispatch must reject it with the same sentinel.
		if err := enc.EncodeBuffered(Envelope{From: 1, To: 2, Msg: (*Probe)(nil)}); !errors.Is(err, ErrNilMessage) {
			t.Fatalf("%v: typed nil: err = %v, want ErrNilMessage", f, err)
		}
		// Nothing may have reached the stream buffer from the rejects
		// (the binary stream's one version byte is allowed).
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// chunkReader hands out one chunk per Read, so a test decides exactly
// which bytes a bufio.Reader holds after one fill.
type chunkReader struct{ chunks [][]byte }

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// TestDecoderFrameBuffered table-tests the group-commit peek: after one
// frame has been decoded, FrameBuffered is true exactly when the next
// Decode cannot block — a complete frame, or a length prefix Decode
// rejects without reading further — and it never consumes: the frame it
// peeked at (split across two reads in most rows) still decodes intact.
func TestDecoderFrameBuffered(t *testing.T) {
	frame := func(seq uint64, m Message) []byte {
		b, err := AppendEnvelopeFrame(nil, Envelope{From: 1, To: 2, Seq: seq, Epoch: 7, Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := frame(1, Probe{Tag: id.Tag{Initiator: 1, N: 1}})
	next := frame(2, Probe{Tag: id.Tag{Initiator: 1, N: 2}})
	big := frame(2, WFGD{Edges: make([]id.Edge, 1024)}) // larger than the read buffer
	if len(big) <= 4096 {
		t.Fatalf("big frame is only %d bytes", len(big))
	}
	cases := []struct {
		name string
		tail []byte // buffered behind the first frame
		rest []byte // arrives with the next read
		want bool
		err  error // what the second Decode returns (nil: frame 2)
	}{
		{"nothing", nil, next, false, nil},
		{"one-header-byte", next[:1], next[1:], false, nil},
		{"three-header-bytes", next[:3], next[3:], false, nil},
		{"header-only", next[:4], next[4:], false, nil},
		{"header-and-half-body", next[:len(next)/2], next[len(next)/2:], false, nil},
		{"one-byte-short", next[:len(next)-1], next[len(next)-1:], false, nil},
		{"complete", next, nil, true, nil},
		{"complete-plus-partial", append(append([]byte(nil), next...), first[:5]...), nil, true, nil},
		{"frame-larger-than-buffer", big[:2000], big[2000:], false, nil},
		{"length-below-header", []byte{3, 0, 0, 0}, nil, true, ErrBadFrame},
		{"length-above-cap", []byte{0xff, 0xff, 0xff, 0xff}, nil, true, ErrFrameTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			head := append([]byte{binMagic}, first...)
			r := &chunkReader{chunks: [][]byte{append(head, tc.tail...)}}
			if len(tc.rest) > 0 {
				r.chunks = append(r.chunks, tc.rest)
			}
			dec := NewDecoder(r)
			if dec.FrameBuffered() {
				t.Fatal("FrameBuffered before the format was sniffed")
			}
			if env, err := dec.Decode(); err != nil || env.Seq != 1 {
				t.Fatalf("first Decode = (%+v, %v)", env, err)
			}
			for i := 0; i < 2; i++ { // twice: a peek must not change the answer
				if got := dec.FrameBuffered(); got != tc.want {
					t.Fatalf("FrameBuffered (call %d) = %v, want %v", i+1, got, tc.want)
				}
			}
			env, err := dec.Decode()
			if !errors.Is(err, tc.err) {
				t.Fatalf("second Decode error = %v, want %v", err, tc.err)
			}
			if tc.err == nil && env.Seq != 2 {
				t.Fatalf("second Decode returned Seq %d, want 2 — the peek consumed bytes", env.Seq)
			}
		})
	}

	// A gob stream has no length prefix to peek at: always "may block".
	var gobStream bytes.Buffer
	enc := NewEncoderFormat(&gobStream, WireGob)
	for seq := uint64(1); seq <= 2; seq++ {
		if err := enc.Encode(Envelope{From: 1, To: 2, Seq: seq, Epoch: 7, Msg: Probe{}}); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&gobStream)
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	if dec.FrameBuffered() {
		t.Fatal("FrameBuffered on a gob stream")
	}
}
