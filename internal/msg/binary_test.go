package msg

// Tests for the binary wire codec: per-type round-trips, the golden
// header layout, the zero-allocation guarantees of the encode and
// reject paths, and the version-byte check.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/id"
)

// allWireMessages returns one representative value per registered wire
// type, with every field nonzero so a dropped field cannot hide.
func allWireMessages() []Message {
	return []Message{
		Request{},
		Request{Rejoin: true},
		Reply{},
		Probe{Tag: id.Tag{Initiator: 7, N: 42}},
		WFGD{Edges: []id.Edge{{From: 1, To: 2}, {From: 3, To: 4}, {From: -5, To: 6}}},
		CtrlAcquire{Txn: 9, Resource: 11, Mode: LockWrite, Inc: 3},
		CtrlGranted{Txn: 9, Resource: 11, Inc: 3},
		CtrlRelease{Txn: 9, Resource: 11, Inc: 3},
		CtrlProbe{
			Tag:  id.CtrlTag{Initiator: 2, N: 17},
			Edge: id.AgentEdge{From: id.Agent{Txn: 1, Site: 2}, To: id.Agent{Txn: 1, Site: 3}},
		},
		CtrlAbort{Txn: 13},
		BaselineReport{Site: 3, Edges: []id.AgentEdge{
			{From: id.Agent{Txn: 1, Site: 1}, To: id.Agent{Txn: 2, Site: 1}},
		}},
		BaselineDecision{Deadlocked: []id.Txn{4, 5, 6}},
		CommWork{},
		CommQuery{Init: 3, Seq: 99},
		CommReply{Init: 3, Seq: 99},
		Cluster{Payload: []byte{0x01, 0xde, 0xad, 0xbe, 0xef}},
	}
}

// sameMessage compares decoded messages, treating a nil and an empty
// slice as equal (both mean "no elements").
func sameMessage(a, b Message) bool {
	norm := func(m Message) Message {
		switch v := m.(type) {
		case WFGD:
			if len(v.Edges) == 0 {
				return WFGD{}
			}
		case BaselineReport:
			if len(v.Edges) == 0 {
				return BaselineReport{Site: v.Site}
			}
		case BaselineDecision:
			if len(v.Deadlocked) == 0 {
				return BaselineDecision{}
			}
		case Cluster:
			if len(v.Payload) == 0 {
				return Cluster{}
			}
		}
		return m
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// TestBinaryRoundTripAllTypes round-trips every wire type with full
// envelope metadata through the binary codec.
func TestBinaryRoundTripAllTypes(t *testing.T) {
	for i, m := range allWireMessages() {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		in := Envelope{
			From: int32(i + 1), To: -int32(i + 2), SrcHost: int32(i),
			Seq: uint64(i + 10), Epoch: uint64(i)<<32 | 0xdead, Ack: uint64(i), Inc: uint64(i + 3),
			Msg: m,
		}
		if err := enc.Encode(in); err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		dec := NewDecoder(&buf)
		out, err := dec.Decode()
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if out.From != in.From || out.To != in.To || out.SrcHost != in.SrcHost ||
			out.Seq != in.Seq || out.Epoch != in.Epoch || out.Ack != in.Ack || out.Inc != in.Inc {
			t.Fatalf("%T: header fields mangled:\nin  %+v\nout %+v", m, in, out)
		}
		if !sameMessage(in.Msg, out.Msg) {
			t.Fatalf("%T: message mangled:\nin  %#v\nout %#v", m, in.Msg, out.Msg)
		}
		if _, err := dec.Decode(); err != io.EOF {
			t.Fatalf("%T: trailing decode: err = %v, want io.EOF", m, err)
		}
	}
}

// TestBinaryGoldenLayout pins the exact bytes of one probe frame. A
// change here is a wire-protocol break: it needs a new version byte,
// not a test update (DESIGN.md §9 evolution rules).
func TestBinaryGoldenLayout(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	err := enc.Encode(Envelope{
		From: 0x01020304, To: 0x11121314, SrcHost: 0x21222324,
		Seq: 0x3132333435363738, Epoch: 0x4142434445464748,
		Ack: 0x5152535455565758, Inc: 0x6162636465666768,
		Msg: Probe{Tag: id.Tag{Initiator: 0x71727374, N: 0x8182838485868788}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	le := binary.LittleEndian
	want := []byte{0xB1} // stream version byte
	want = append(want, le.AppendUint32(nil, binHdrTail+12)...)
	want = append(want, CtlData, tagProbe)
	want = append(want, le.AppendUint32(nil, 0x01020304)...)
	want = append(want, le.AppendUint32(nil, 0x11121314)...)
	want = append(want, le.AppendUint32(nil, 0x21222324)...)
	want = append(want, le.AppendUint64(nil, 0x3132333435363738)...)
	want = append(want, le.AppendUint64(nil, 0x4142434445464748)...)
	want = append(want, le.AppendUint64(nil, 0x5152535455565758)...)
	want = append(want, le.AppendUint64(nil, 0x6162636465666768)...)
	want = append(want, le.AppendUint32(nil, 0x71727374)...)
	want = append(want, le.AppendUint64(nil, 0x8182838485868788)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("golden frame mismatch:\ngot  % x\nwant % x", got, want)
	}
}

// discard is a Write sink that cannot trigger bufio growth paths.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestBinaryEncodeZeroAlloc is the tentpole's contract: steady-state
// encoding of probe traffic — the message the detection algorithm sends
// most — performs zero heap allocations per frame, including the
// periodic Flush.
func TestBinaryEncodeZeroAlloc(t *testing.T) {
	enc := NewEncoder(discard{})
	env := Envelope{From: 1, To: 2, SrcHost: 3, Seq: 1, Epoch: 99,
		Msg: Probe{Tag: id.Tag{Initiator: 1, N: 1}}}
	// Warm up: version byte out, buffers sized.
	if err := enc.Encode(env); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		env.Seq++
		if err := enc.EncodeBuffered(env); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("probe encode path: %.1f allocs/op, want 0", allocs)
	}
	// Control frames (the ack/lease traffic) must be free too.
	ack := Envelope{From: 2, To: 1, Epoch: 99, Ctl: CtlAck, Ack: 5, Inc: 1}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := enc.EncodeBuffered(ack); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ack encode path: %.1f allocs/op, want 0", allocs)
	}
}

// TestBinaryRejectNoAlloc asserts malformed binary frames are rejected
// with sentinel errors and zero allocations — a hostile peer cannot
// make the receiver's reject path churn the heap.
func TestBinaryRejectNoAlloc(t *testing.T) {
	le := binary.LittleEndian
	frame := func(n uint32, tail []byte) []byte {
		return append(le.AppendUint32(nil, n), tail...)
	}
	// An unknown-tag data frame: structurally complete, tag 0xEE.
	badTag := make([]byte, binHdrLen)
	le.PutUint32(badTag, binHdrTail)
	badTag[4] = CtlData
	badTag[5] = 0xEE
	cases := []struct {
		name string
		pat  []byte
		want error
	}{
		// These patterns are self-synchronising: each reject consumes
		// exactly one whole pattern (the length prefix alone when the
		// frame is never read, the full frame when it is), so the decoder
		// hits the same reject path on every call.
		{"oversized-length-prefix", frame(maxFrameLen+1, nil), ErrFrameTooLarge},
		{"undersized-length-prefix", frame(binHdrTail-1, nil), ErrBadFrame},
		{"unknown-type-tag", badTag, ErrUnknownTag},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream := append([]byte{binMagic}, bytes.Repeat(tc.pat, 300)...)
			dec := NewDecoder(bytes.NewReader(stream))
			// Warm up: sniff the format, size the scratch.
			if _, err := dec.Decode(); !errors.Is(err, tc.want) {
				t.Fatalf("warmup decode: err = %v, want %v", err, tc.want)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := dec.Decode(); !errors.Is(err, tc.want) {
					t.Fatalf("decode: err = %v, want %v", err, tc.want)
				}
			})
			if allocs != 0 {
				t.Fatalf("reject path: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestBinaryDecodeRejects covers the malformed-frame taxonomy the
// sentinels partition.
func TestBinaryDecodeRejects(t *testing.T) {
	le := binary.LittleEndian
	mk := func(mut func(b []byte) []byte) []byte {
		// A valid probe frame, then mutated.
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.Encode(Envelope{From: 1, To: 2, Seq: 1, Epoch: 1,
			Msg: Probe{Tag: id.Tag{Initiator: 1, N: 1}}}); err != nil {
			t.Fatal(err)
		}
		return mut(buf.Bytes())
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"truncated-header", mk(func(b []byte) []byte { return b[:7] }), ErrTruncatedFrame},
		{"truncated-payload", mk(func(b []byte) []byte { return b[:len(b)-3] }), ErrTruncatedFrame},
		{"payload-size-mismatch", mk(func(b []byte) []byte {
			le.PutUint32(b[1:], binHdrTail+11) // probe payload is 12
			return b[:len(b)-1]
		}), ErrBadFrame},
		{"data-frame-tag-none", mk(func(b []byte) []byte {
			le.PutUint32(b[1:], binHdrTail)
			b[6] = tagNone
			return b[:1+binHdrLen]
		}), ErrNilMessage},
		{"unknown-ctl", mk(func(b []byte) []byte {
			le.PutUint32(b[1:], binHdrTail)
			b[5] = 7 // Ctl
			b[6] = tagNone
			return b[:1+binHdrLen]
		}), ErrUnknownCtl},
		{"ctl-frame-with-payload", mk(func(b []byte) []byte {
			b[5] = CtlPing
			return b
		}), ErrBadFrame},
		{"wfgd-count-overruns", func() []byte {
			var buf bytes.Buffer
			enc := NewEncoder(&buf)
			if err := enc.Encode(Envelope{From: 1, To: 2, Seq: 1, Epoch: 1,
				Msg: WFGD{Edges: []id.Edge{{From: 1, To: 2}}}}); err != nil {
				t.Fatal(err)
			}
			b := buf.Bytes()
			le.PutUint32(b[1+binHdrLen:], 1<<20) // claim 2^20 edges, carry 1
			return b
		}(), ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := NewDecoder(bytes.NewReader(tc.data))
			if _, err := dec.Decode(); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestTypedNilRejected extends the nil-message guard to typed nils:
// (*Probe)(nil) passes an == nil comparison but must be rejected with
// the same ErrNilMessage as an untyped nil.
func TestTypedNilRejected(t *testing.T) {
	enc := NewEncoder(&bytes.Buffer{})
	err := enc.EncodeBuffered(Envelope{From: 1, To: 2, Msg: (*Probe)(nil)})
	if !errors.Is(err, ErrNilMessage) {
		t.Errorf("typed-nil message: err = %v, want ErrNilMessage", err)
	}
	// An alien non-nil type is a different failure: unknown, not nil.
	err = enc.EncodeBuffered(Envelope{From: 1, To: 2, Msg: alienMsg{}})
	if !errors.Is(err, ErrUnknownMessage) {
		t.Errorf("alien message: err = %v, want ErrUnknownMessage", err)
	}
}

// alienMsg is a Message type outside the wire taxonomy.
type alienMsg struct{}

func (alienMsg) Kind() Kind { return Kind(998) }

// TestFormatSniffing checks the decoder's first-byte check: a stream
// opening with the version byte 0xB1 decodes, and a stream opening with
// any other byte (another protocol, a newer codec version, the gob
// framing earlier releases spoke) fails every Decode with ErrBadVersion,
// allocation-free, without reading a frame.
func TestFormatSniffing(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(Envelope{From: 3, To: 4, Seq: 1, Epoch: 5,
		Msg: Probe{Tag: id.Tag{Initiator: 3, N: 8}}}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if good[0] != 0xB1 {
		t.Fatalf("stream opens with %#x, want 0xB1", good[0])
	}
	env, err := NewDecoder(bytes.NewReader(good)).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := env.Msg.(Probe); !ok || p.Tag.N != 8 {
		t.Fatalf("decoded %#v", env.Msg)
	}
	for _, first := range []byte{0x00, 0x20, 0x7F, 0xB0, 0xB2, 0xFF} {
		bad := append([]byte{first}, good[1:]...)
		dec := NewDecoder(bytes.NewReader(bad))
		if _, err := dec.Decode(); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("first byte %#x: err = %v, want ErrBadVersion", first, err)
		}
		if dec.FrameBuffered() {
			t.Fatalf("first byte %#x: FrameBuffered on a rejected stream", first)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := dec.Decode(); !errors.Is(err, ErrBadVersion) {
				t.Fatalf("first byte %#x: repeat decode err = %v, want ErrBadVersion", first, err)
			}
		}); allocs != 0 {
			t.Fatalf("first byte %#x: bad-version reject allocates %.1f times", first, allocs)
		}
	}
}

// TestBinaryClusterPayload pins the two properties the cluster layer
// depends on: a decoded Cluster payload is an independent copy (not a
// view of the decoder's reusable scratch), and a count that disagrees
// with the frame length is rejected, never over-read.
func TestBinaryClusterPayload(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	payload := []byte{9, 8, 7, 6}
	for i := 0; i < 2; i++ {
		if err := enc.EncodeBuffered(Envelope{From: 1, To: 2, Seq: uint64(i + 1), Epoch: 1,
			Msg: Cluster{Payload: payload}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	first, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	got := first.Msg.(Cluster).Payload
	saved := append([]byte(nil), got...)
	if _, err := dec.Decode(); err != nil { // reuses the scratch buffer
		t.Fatal(err)
	}
	if !bytes.Equal(got, saved) {
		t.Fatalf("payload aliased decoder scratch: now % x, was % x", got, saved)
	}
	// Count/length disagreement is ErrBadFrame.
	if _, err := binDecodePayload(tagCluster, []byte{5, 0, 0, 0, 1, 2}, false); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short payload: err = %v, want ErrBadFrame", err)
	}
	if _, err := binDecodePayload(tagCluster, []byte{1, 0, 0}, false); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated count: err = %v, want ErrBadFrame", err)
	}
}

// TestBinaryDecodeSingletons checks the payload-free messages decode to
// the pre-boxed singletons (no per-frame boxing allocation).
func TestBinaryDecodeSingletons(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, m := range []Message{Request{}, Request{Rejoin: true}, Reply{}, CommWork{}} {
		if err := enc.EncodeBuffered(Envelope{From: 1, To: 2, Seq: 1, Epoch: 1, Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	for _, want := range []Message{boxedRequest, boxedRejoin, boxedReply, boxedCommWork} {
		env, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if env.Msg != want {
			t.Fatalf("decoded %#v, want shared singleton %#v", env.Msg, want)
		}
	}
}
