package msg

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/id"
)

// FuzzDecoder feeds arbitrary bytes to the envelope decoder: it must
// either decode cleanly or return an error — never panic — because the
// TCP transport trusts it with whatever arrives on the wire.
func FuzzDecoder(f *testing.F) {
	// Seed with a few valid streams.
	seedMsgs := []Message{
		Request{},
		Probe{Tag: id.Tag{Initiator: 1, N: 2}},
		WFGD{Edges: []id.Edge{{From: 1, To: 2}}},
		CtrlAcquire{Txn: 3, Resource: 4, Mode: LockWrite, Inc: 1},
	}
	encode := func(envs ...Envelope) []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		for _, env := range envs {
			if err := enc.Encode(env); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	for _, m := range seedMsgs {
		f.Add(encode(Envelope{From: 1, To: 2, Msg: m}))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})
	// Binary-codec hostile shapes: truncated header, oversized length
	// prefix, undersized length prefix, unknown type tag, data frame
	// with tag 0 (the "typed-nil bytes" a buggy encoder would emit),
	// control frame with payload, unknown control discriminator.
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, 46, 0, 0, 0, 0, 1})
	f.Add([]byte{binMagic, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(append([]byte{binMagic, 46, 0, 0, 0, 0, 0xEE}, make([]byte, 44)...))
	f.Add(append([]byte{binMagic, 46, 0, 0, 0, 0, 0}, make([]byte, 44)...))
	f.Add(append([]byte{binMagic, 47, 0, 0, 0, 1, 0}, make([]byte, 45)...))
	f.Add(append([]byte{binMagic, 46, 0, 0, 0, 9, 0}, make([]byte, 44)...))
	// Valid control frames carry no message: a lease ping, a cumulative
	// ack, and a stream mixing data and control frames.
	f.Add(encode(Envelope{From: 1, To: 2, SrcHost: 3, Epoch: 9, Ctl: CtlPing}))
	f.Add(encode(Envelope{From: 2, To: 1, Epoch: 9, Ctl: CtlAck, Ack: 64, Inc: 5}))
	f.Add(encode(
		Envelope{From: 1, To: 2, Seq: 1, Epoch: 9, Msg: Probe{Tag: id.Tag{Initiator: 1, N: 1}}},
		Envelope{From: 1, To: 2, Epoch: 9, Ctl: CtlPing},
		Envelope{From: 1, To: 2, Seq: 2, Epoch: 9, Msg: Cluster{Payload: []byte{1, 2, 3}}},
	))
	// A stream that does not open with the version byte.
	f.Add(append([]byte{0x20}, encode(Envelope{From: 1, To: 2, Msg: Reply{}})[1:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for i := 0; i < 16; i++ {
			env, err := dec.Decode()
			if err != nil {
				if err == io.EOF {
					return
				}
				return // any non-panic error is acceptable
			}
			// A successfully decoded data envelope must carry a usable
			// message; ping and ack frames legitimately carry none.
			if env.Ctl != CtlData {
				continue
			}
			if env.Msg == nil {
				t.Fatal("decoded data envelope with nil message")
			}
			_ = env.Msg.Kind().String()
		}
	})
}

// FuzzWFGDCanonical checks the canonicalization never panics and is
// idempotent for arbitrary edge lists.
func FuzzWFGDCanonical(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, raw []byte) {
		edges := make([]id.Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, id.Edge{From: id.Proc(raw[i]), To: id.Proc(raw[i+1])})
		}
		canon, key := WFGD{Edges: edges}.Canonical()
		canon2, key2 := canon.Canonical()
		if key != key2 || len(canon.Edges) != len(canon2.Edges) {
			t.Fatalf("canonicalization not idempotent: %q vs %q", key, key2)
		}
	})
}
