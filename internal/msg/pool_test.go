package msg

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/id"
)

// pooledRoundTripEnvs covers every pooled type plus the singleton and
// slice-carrying forms a pooled decoder must leave untouched.
func pooledRoundTripEnvs() []Envelope {
	return []Envelope{
		{From: 1, To: 2, Seq: 1, Epoch: 7, Msg: Probe{Tag: id.Tag{Initiator: 3, N: 9}}},
		{From: 1, To: 2, Seq: 2, Epoch: 7, Msg: CtrlAcquire{Txn: 4, Resource: 5, Mode: LockWrite, Inc: 2}},
		{From: 1, To: 2, Seq: 3, Epoch: 7, Msg: CtrlGranted{Txn: 4, Resource: 5, Inc: 2}},
		{From: 1, To: 2, Seq: 4, Epoch: 7, Msg: CtrlRelease{Txn: 4, Resource: 5, Inc: 2}},
		{From: 1, To: 2, Seq: 5, Epoch: 7, Msg: CtrlProbe{
			Tag:  id.CtrlTag{Initiator: 2, N: 11},
			Edge: id.AgentEdge{From: id.Agent{Txn: 1, Site: 2}, To: id.Agent{Txn: 3, Site: 4}},
		}},
		{From: 1, To: 2, Seq: 6, Epoch: 7, Msg: CtrlAbort{Txn: 8}},
		{From: 1, To: 2, Seq: 7, Epoch: 7, Msg: CommQuery{Init: 6, Seq: 13}},
		{From: 1, To: 2, Seq: 8, Epoch: 7, Msg: CommReply{Init: 6, Seq: 13}},
		{From: 1, To: 2, Seq: 9, Epoch: 7, Msg: Request{Rejoin: true}},
		{From: 1, To: 2, Seq: 10, Epoch: 7, Msg: Reply{}},
		{From: 1, To: 2, Seq: 11, Epoch: 7, Msg: WFGD{Edges: []id.Edge{{From: 1, To: 2}}}},
	}
}

// TestPooledDecodeRoundTrip checks a pooled decoder yields pointer
// forms for the hot types whose dereferenced payloads match what was
// sent, and value/singleton forms for everything else. Steady-state
// probe frames cost zero allocations to encode and to decode.
func TestPooledDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	envs := pooledRoundTripEnvs()
	for _, env := range envs {
		if err := enc.Encode(env); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	dec := NewPooledDecoder(&buf)
	for i, want := range envs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if _, sliced := got.Msg.(WFGD); !sliced { // slice payloads do not compare with ==
			if Deref(got.Msg) != Deref(want.Msg) {
				t.Fatalf("frame %d: got %#v want %#v", i, got.Msg, want.Msg)
			}
		}
		switch want.Msg.(type) {
		case Probe, CtrlAcquire, CtrlGranted, CtrlRelease, CtrlProbe, CtrlAbort, CommQuery, CommReply:
			switch got.Msg.(type) {
			case *Probe, *CtrlAcquire, *CtrlGranted, *CtrlRelease, *CtrlProbe, *CtrlAbort, *CommQuery, *CommReply:
			default:
				t.Fatalf("frame %d: hot type decoded as %T, want pooled pointer form", i, got.Msg)
			}
		}
		Recycle(got.Msg)
	}
	if enc, dec := steadyProbeAllocs(t); enc != 0 || dec != 0 {
		t.Errorf("%.1f allocs per probe encode, %.1f per decode; want 0 and 0", enc, dec)
	}
}

// steadyProbeAllocs measures allocations per probe frame on an
// established stream: one EncodeBuffered plus Flush, and one pooled
// Decode whose message is recycled, as the transport's dispatch does.
func steadyProbeAllocs(t *testing.T) (enc, dec float64) {
	t.Helper()
	env := Envelope{From: 1, To: 2, Seq: 1, Epoch: 7, Msg: Probe{Tag: id.Tag{Initiator: 1, N: 1}}}
	e := NewEncoder(io.Discard)
	if err := e.Encode(env); err != nil { // version byte, buffers sized
		t.Fatal(err)
	}
	enc = testing.AllocsPerRun(500, func() {
		env.Seq++
		if err := e.EncodeBuffered(env); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	var stream bytes.Buffer
	w := NewEncoder(&stream)
	for i := 0; i < 600; i++ {
		env.Seq++
		if err := w.EncodeBuffered(env); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	d := NewPooledDecoder(&stream)
	if _, err := d.Decode(); err != nil { // version byte, scratch sized
		t.Fatal(err)
	}
	dec = testing.AllocsPerRun(500, func() {
		got, err := d.Decode()
		if err != nil {
			t.Fatal(err)
		}
		Recycle(got.Msg)
	})
	return enc, dec
}

// TestRecycleZeroes checks a recycled message comes back from the pool
// zeroed, so one frame's payload can never leak into the next.
func TestRecycleZeroes(t *testing.T) {
	p := probePool.Get().(*Probe)
	p.Tag = id.Tag{Initiator: 42, N: 99}
	Recycle(p)
	// Drain until we see the same pointer again (the pool may hold
	// others); every instance must be zero regardless.
	for i := 0; i < 64; i++ {
		q := probePool.Get().(*Probe)
		if q.Tag != (id.Tag{}) {
			t.Fatalf("pooled Probe not zeroed: %+v", q.Tag)
		}
		if q == p {
			return
		}
	}
}

// TestRecycleNonPooledNoOp checks Recycle tolerates everything a
// delivery path might hand it.
func TestRecycleNonPooledNoOp(t *testing.T) {
	Recycle(nil)
	Recycle(Probe{Tag: id.Tag{Initiator: 1}})
	Recycle(Request{})
	Recycle(boxedReply)
	Recycle(WFGD{Edges: []id.Edge{{From: 1, To: 2}}})
	Recycle((*Probe)(nil)) // typed nil must not be pooled or crash
}

// TestEncodePointerFormsByteIdentical checks re-encoding a pooled
// pointer form produces exactly the bytes of its value twin, for both
// the buffered and the vector encoder.
func TestEncodePointerFormsByteIdentical(t *testing.T) {
	pairs := []struct{ val, ptr Message }{
		{Probe{Tag: id.Tag{Initiator: 3, N: 9}}, &Probe{Tag: id.Tag{Initiator: 3, N: 9}}},
		{CtrlAcquire{Txn: 4, Resource: 5, Mode: LockRead, Inc: 1}, &CtrlAcquire{Txn: 4, Resource: 5, Mode: LockRead, Inc: 1}},
		{CtrlGranted{Txn: 4, Resource: 5, Inc: 1}, &CtrlGranted{Txn: 4, Resource: 5, Inc: 1}},
		{CtrlRelease{Txn: 4, Resource: 5, Inc: 1}, &CtrlRelease{Txn: 4, Resource: 5, Inc: 1}},
		{CtrlProbe{Tag: id.CtrlTag{Initiator: 2, N: 1}}, &CtrlProbe{Tag: id.CtrlTag{Initiator: 2, N: 1}}},
		{CtrlAbort{Txn: 8}, &CtrlAbort{Txn: 8}},
		{CommQuery{Init: 6, Seq: 13}, &CommQuery{Init: 6, Seq: 13}},
		{CommReply{Init: 6, Seq: 13}, &CommReply{Init: 6, Seq: 13}},
	}
	for _, pc := range pairs {
		var a, b bytes.Buffer
		ea, eb := NewEncoder(&a), NewEncoder(&b)
		envV := Envelope{From: 1, To: 2, Seq: 1, Epoch: 3, Msg: pc.val}
		envP := envV
		envP.Msg = pc.ptr
		if err := ea.Encode(envV); err != nil {
			t.Fatalf("%T value encode: %v", pc.val, err)
		}
		if err := eb.Encode(envP); err != nil {
			t.Fatalf("%T pointer encode: %v", pc.val, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%T: pointer form encodes differently from value form", pc.val)
		}
		vec := NewEncoder(io.Discard)
		seg, err := vec.AppendFrame(nil, envP)
		if err != nil {
			t.Fatalf("%T AppendFrame: %v", pc.val, err)
		}
		if !bytes.Equal(seg, a.Bytes()) {
			t.Fatalf("%T: vector frame differs from buffered encoding", pc.val)
		}
	}
}

// TestAppendFrameMagicOnce checks the stream version byte precedes
// exactly the first vector frame and stays unsent when the first frame
// is rejected.
func TestAppendFrameMagicOnce(t *testing.T) {
	enc := NewEncoder(io.Discard)
	if _, err := enc.AppendFrame(nil, Envelope{From: 1, To: 2, Msg: nil}); err == nil {
		t.Fatal("nil message must be rejected")
	}
	seg1, err := enc.AppendFrame(nil, Envelope{From: 1, To: 2, Seq: 1, Msg: Reply{}})
	if err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	if len(seg1) == 0 || seg1[0] != binMagic {
		t.Fatal("first successful frame must carry the stream version byte")
	}
	seg2, err := enc.AppendFrame(nil, Envelope{From: 1, To: 2, Seq: 2, Msg: Reply{}})
	if err != nil {
		t.Fatalf("frame 2: %v", err)
	}
	if len(seg2) > 0 && seg2[0] == binMagic {
		t.Fatal("version byte must be sent once per stream")
	}
}

// TestPooledDecodeZeroAllocs pins the pooled steady state: decoding a
// probe frame and recycling it performs no heap allocation.
func TestPooledDecodeZeroAllocs(t *testing.T) {
	var wire bytes.Buffer
	enc := NewEncoder(&wire)
	env := Envelope{From: 1, To: 2, Seq: 1, Epoch: 3, Msg: Probe{Tag: id.Tag{Initiator: 3, N: 9}}}
	if err := enc.Encode(env); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), wire.Bytes()...)
	r := bytes.NewReader(frame)
	dec := NewPooledDecoder(r)
	if _, err := dec.Decode(); err != nil { // warm-up: version byte + size scratch
		t.Fatal(err)
	}
	// Re-feed the same frame bytes (sans magic) through the same decoder.
	body := frame[1:]
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(body)
		dec.br.Reset(r)
		e, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		Recycle(e.Msg)
	})
	if allocs != 0 {
		t.Fatalf("pooled decode allocated %.1f times per frame, want 0", allocs)
	}
}

// TestSendSidePoolRoundTrip: each send-side constructor returns a pooled
// pointer holding its value, and a frame recycled by its consumer is
// taken again by the next send without an allocation.
func TestSendSidePoolRoundTrip(t *testing.T) {
	edge := id.AgentEdge{From: id.Agent{Txn: 1, Site: 2}, To: id.Agent{Txn: 3, Site: 4}}
	for _, c := range []struct {
		want Message
		make func() Message
	}{
		{CtrlAcquire{Txn: 4, Resource: 5, Mode: LockWrite, Inc: 2}, func() Message { return NewCtrlAcquire(CtrlAcquire{Txn: 4, Resource: 5, Mode: LockWrite, Inc: 2}) }},
		{CtrlGranted{Txn: 4, Resource: 5, Inc: 2}, func() Message { return NewCtrlGranted(CtrlGranted{Txn: 4, Resource: 5, Inc: 2}) }},
		{CtrlRelease{Txn: 4, Resource: 5, Inc: 2}, func() Message { return NewCtrlRelease(CtrlRelease{Txn: 4, Resource: 5, Inc: 2}) }},
		{CtrlProbe{Tag: id.CtrlTag{Initiator: 2, N: 11}, Edge: edge}, func() Message { return NewCtrlProbe(CtrlProbe{Tag: id.CtrlTag{Initiator: 2, N: 11}, Edge: edge}) }},
		{CtrlAbort{Txn: 9}, func() Message { return NewCtrlAbort(CtrlAbort{Txn: 9}) }},
	} {
		m := c.make()
		if got := Deref(m); got != c.want || m == c.want {
			t.Fatalf("%T holds %+v, want a pointer to %+v", m, got, c.want)
		}
		Recycle(m)
		if a := testing.AllocsPerRun(100, func() { Recycle(c.make()) }); a != 0 {
			t.Errorf("%T: %v allocs per send and recycle, want 0", c.want, a)
		}
	}
}
