package msg

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"reflect"
)

// Envelope is the wire frame exchanged by the TCP transport: a routed
// message between two node endpoints. Node identifiers are opaque
// int32s assigned by the transport layer.
//
// Seq and Epoch implement the transport's reconnect protocol. Seq
// numbers the frames of one ordered (From,To) pair, starting at 1 and
// increasing by 1 per frame, so a receiver can drop duplicates and
// resequence frames replayed across a re-dialed connection while
// preserving the per-pair FIFO guarantee (axiom P4 + §2.4 in-order
// delivery). Epoch identifies one sender incarnation of the pair: a
// sender that restarts (losing its sequence counter) picks a fresh
// Epoch, telling the receiver to reset its expected sequence to 1.
// Seq == 0 marks an unsequenced frame from a sender predating this
// protocol; such frames are delivered as-is.
//
// Ctl distinguishes transport control frames from data frames. Control
// frames carry no Message and are consumed by the transport itself —
// they never reach a handler and never occupy a slot in the pair's
// sequence space:
//
//   - CtlPing (sender→receiver on the outbound connection) solicits an
//     acknowledgement; the lease-based failure detector counts missed
//     acks to declare a peer down.
//   - CtlAck (receiver→sender on the *inbound* connection, i.e. flowing
//     against the data) reports in Ack the highest contiguously
//     delivered sequence number of the epoch named in Epoch, letting
//     the sender prune its replay buffer, and carries in Inc the
//     receiver's inbox incarnation so the sender can tell a restarted
//     receiver (fresh incarnation, protocol state gone) from one that
//     merely lost a connection.
//
// SrcHost is the host-level multiplexed addressing extension: when
// nonzero, the frame belongs to a *host* stream — one TCP link carries
// the traffic of every node co-hosted at SrcHost toward the receiving
// host, and Seq/Epoch sequence that shared stream rather than the
// (From,To) pair. From/To still name the node endpoints, so the
// receiving host demultiplexes by To after resequencing by (SrcHost,
// Epoch, Seq). SrcHost == 0 is the legacy per-node stream addressing;
// the two coexist on one transport, which is what lets the conformance
// harness replay identical schedules through either path. Host
// identifiers are therefore required to be positive.
type Envelope struct {
	From    int32
	To      int32
	SrcHost int32
	Seq     uint64
	Epoch   uint64
	Msg     Message
	Ctl     uint8
	Ack     uint64
	Inc     uint64
}

// Control-frame discriminators for Envelope.Ctl.
const (
	CtlData uint8 = iota // ordinary data frame carrying Msg
	CtlPing              // liveness probe, answered with a CtlAck
	CtlAck               // cumulative delivery acknowledgement
)

// WireFormat selects the frame encoding an Encoder produces. Decoders
// need no selection: they sniff the stream's first byte (see binMagic)
// and accept either format, which is what lets mixed-version links
// interoperate during the migration window.
type WireFormat int

const (
	// WireBinary is the hand-rolled length-prefixed binary codec of
	// binary.go — the default. Zero heap allocations per steady-state
	// frame encoded.
	WireBinary WireFormat = iota
	// WireGob is the reflection-based gob framing every release through
	// PR 5 spoke. Kept for one release so a node that must send to an
	// old peer can opt in (TCPOptions.Codec); old senders are understood
	// automatically regardless.
	WireGob
)

// String names the format.
func (f WireFormat) String() string {
	switch f {
	case WireBinary:
		return "binary"
	case WireGob:
		return "gob"
	default:
		return fmt.Sprintf("wire(%d)", int(f))
	}
}

func init() {
	// gob needs the concrete types that may appear behind the Message
	// interface. Registration is deterministic and side-effect free,
	// which is the sanctioned use of init.
	gob.Register(Request{})
	gob.Register(Reply{})
	gob.Register(Probe{})
	gob.Register(WFGD{})
	gob.Register(CtrlAcquire{})
	gob.Register(CtrlGranted{})
	gob.Register(CtrlRelease{})
	gob.Register(CtrlProbe{})
	gob.Register(CtrlAbort{})
	gob.Register(BaselineReport{})
	gob.Register(BaselineDecision{})
	gob.Register(CommWork{})
	gob.Register(CommQuery{})
	gob.Register(CommReply{})
	gob.Register(Cluster{})
}

// Encoder writes envelopes to a stream in one WireFormat.
type Encoder struct {
	bw   *bufio.Writer
	wire WireFormat
	// enc is the gob encoder, created only in WireGob mode.
	enc *gob.Encoder
	// started records that the binary stream's version byte went out.
	started bool
	// frameBuf is the reusable binary frame staging slice: appendFrame
	// builds each frame into it, then one bufio.Write copies it out.
	// Grown to the largest frame seen, never reallocated per frame in
	// steady state.
	frameBuf []byte
}

// NewEncoder returns an Encoder writing the default (binary) format.
func NewEncoder(w io.Writer) *Encoder { return NewEncoderFormat(w, WireBinary) }

// NewEncoderFormat returns an Encoder writing the given format to w.
func NewEncoderFormat(w io.Writer, f WireFormat) *Encoder {
	bw := bufio.NewWriter(w)
	e := &Encoder{bw: bw, wire: f}
	if f == WireGob {
		e.enc = gob.NewEncoder(bw)
	}
	return e
}

// Format reports the format the encoder writes.
func (e *Encoder) Format() WireFormat { return e.wire }

// Encode writes one envelope and flushes it to the underlying stream.
func (e *Encoder) Encode(env Envelope) error {
	if err := e.EncodeBuffered(env); err != nil {
		return err
	}
	return e.Flush()
}

// EncodeBuffered writes one envelope into the encoder's buffer without
// flushing, so a sender can coalesce a batch of envelopes into a single
// Flush (one syscall instead of one per frame). The buffer may still
// spill to the stream mid-batch once it fills; callers must therefore
// treat any batch whose Flush did not succeed as wholly unconfirmed and
// re-send it on a fresh connection (the TCP transport's replay/dedup
// protocol makes that retransmission safe).
//
// A data envelope whose Msg is nil — including a typed nil such as
// (*Probe)(nil), which an == nil check would wave through — is rejected
// with ErrNilMessage before anything reaches the stream. In binary mode
// a steady-state frame costs zero heap allocations: the header and
// payload are staged through the encoder's own scratch buffer straight
// into the stream's write buffer.
func (e *Encoder) EncodeBuffered(env Envelope) error {
	if e.wire == WireBinary {
		if !e.started {
			// One version byte per stream, ahead of the first frame; its
			// value tells a sniffing decoder this is not a gob stream.
			if err := e.bw.WriteByte(binMagic); err != nil {
				return err
			}
			e.started = true
		}
		buf, err := appendFrame(e.frameBuf[:0], env)
		e.frameBuf = buf
		if err != nil {
			return err
		}
		_, err = e.bw.Write(buf)
		return err
	}
	if env.Ctl == CtlData {
		if _, _, ok := binTagSize(env.Msg); !ok {
			return fmt.Errorf("encode envelope %d->%d: %w", env.From, env.To, classifyBadMessage(env.Msg))
		}
		// gob knows only the registered value types; a pooled pointer
		// form re-boxes to its value twin before hitting the stream.
		env.Msg = Deref(env.Msg)
	}
	if err := e.enc.Encode(env); err != nil {
		return fmt.Errorf("encode envelope: %w", err)
	}
	return nil
}

// Vectored reports whether the encoder's format supports AppendFrame —
// building frames into caller-owned slices for a gathered (writev)
// flush. Only the binary format does; gob callers keep the buffered
// path.
func (e *Encoder) Vectored() bool { return e.wire == WireBinary }

// errNotVectored rejects AppendFrame on a non-binary encoder.
var errNotVectored = errors.New("msg: AppendFrame requires the binary wire format")

// AppendFrame appends the complete wire encoding of env to dst and
// returns the grown slice, without touching the encoder's buffered
// stream. The first frame of the stream is preceded by the version
// byte (shared `started` state with EncodeBuffered, so the two write
// disciplines may alternate on one connection as long as the buffered
// path is flushed before vector writes). On a rejected message dst is
// returned unchanged.
func (e *Encoder) AppendFrame(dst []byte, env Envelope) ([]byte, error) {
	if e.wire != WireBinary {
		return dst, errNotVectored
	}
	withMagic := dst
	if !e.started {
		withMagic = append(dst, binMagic)
	}
	out, err := appendFrame(withMagic, env)
	if err != nil {
		// The version byte must not be considered sent when the caller
		// discards this segment: leave started untouched and hand back
		// the original slice.
		return dst, err
	}
	e.started = true
	return out, nil
}

// Flush pushes every buffered envelope to the underlying stream.
func (e *Encoder) Flush() error {
	if err := e.bw.Flush(); err != nil {
		return fmt.Errorf("flush envelopes: %w", err)
	}
	return nil
}

// isTypedNil reports whether m is a non-nil interface holding a nil
// pointer (or other nillable kind). Reached only after the tag dispatch
// failed to match a concrete value type, so reflection stays off the
// encode hot path.
func isTypedNil(m Message) bool {
	v := reflect.ValueOf(m)
	switch v.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.Chan, reflect.Func, reflect.Interface:
		return v.IsNil()
	}
	return false
}

// Decoder reads envelopes from a stream, accepting either wire format.
// The first byte decides: binMagic selects the binary codec, anything
// else replays the legacy gob path (gob can never emit binMagic first,
// see binary.go).
type Decoder struct {
	br   *bufio.Reader
	mode WireFormat
	// sniffed records whether the stream's format is known yet.
	sniffed bool
	// dec is the gob decoder, created only for legacy streams.
	dec *gob.Decoder
	// buf is the reusable binary payload scratch: one buffer per
	// connection, grown to the largest frame seen, never reallocated per
	// frame in steady state.
	buf []byte
	// pooled selects pool-backed pointer messages for the hot fixed-size
	// types: a steady-state data frame then decodes with zero heap
	// allocations (the pointer rides the interface word). The consumer
	// owns each pooled message for exactly one delivery and returns it
	// with Recycle. Mirrored on the gob-interop path (values are
	// converted to the pooled forms after decode) so handlers see one
	// delivery convention regardless of the peer's codec.
	pooled bool
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReader(r)}
}

// NewPooledDecoder returns a Decoder whose hot fixed-size message types
// decode into sync.Pool-recycled pointers instead of freshly boxed
// values. Callers take on the ownership contract documented on Recycle;
// everything else matches NewDecoder.
func NewPooledDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReader(r), pooled: true}
}

// Format reports the sniffed stream format; valid only after the first
// successful Decode. The transport uses it to answer an inbound stream
// with acknowledgements in the format its sender understands.
func (d *Decoder) Format() WireFormat { return d.mode }

// FrameBuffered reports whether the next Decode is certain to return
// without reading from the underlying stream: a complete binary frame
// (4-byte length plus that many bytes) already sits in the read buffer,
// or the buffered length prefix is one Decode rejects outright. It
// consumes nothing. False means "maybe not": before the first Decode has
// sniffed the format, on a gob stream, on a partial header or body, and
// for a frame larger than the read buffer. A reader uses it to tell
// "more frames arrived with this one" from "the next Decode may block".
func (d *Decoder) FrameBuffered() bool {
	if !d.sniffed || d.mode != WireBinary {
		return false
	}
	have := d.br.Buffered()
	if have < 4 {
		return false
	}
	lenb, _ := d.br.Peek(4) // have >= 4: served from the buffer, cannot fail or block
	n := int(le.Uint32(lenb))
	return n < binHdrTail || n > maxFrameLen || have-4 >= n
}

// Decode reads one envelope. It returns io.EOF when the stream ends
// cleanly between frames. A structurally valid frame that carries no
// message (possible with a hand-crafted or corrupted frame) is rejected
// as an error rather than surfacing a nil message to handlers; control
// frames (Ctl != CtlData) legitimately carry none. On the binary path
// every malformed-frame rejection is one of the package's sentinel
// errors and allocates nothing.
func (d *Decoder) Decode() (Envelope, error) {
	if !d.sniffed {
		first, err := d.br.Peek(1)
		if err != nil {
			if err == io.EOF {
				return Envelope{}, io.EOF
			}
			return Envelope{}, fmt.Errorf("decode envelope: %w", err)
		}
		d.sniffed = true
		if first[0] == binMagic {
			d.mode = WireBinary
			d.br.ReadByte() // consume the version byte
		} else {
			d.mode = WireGob
			d.dec = gob.NewDecoder(d.br)
		}
	}
	if d.mode == WireBinary {
		env, buf, err := binDecodeFrame(d.br, d.buf, d.pooled)
		d.buf = buf
		return env, err
	}
	var env Envelope
	if err := d.dec.Decode(&env); err != nil {
		if err == io.EOF {
			return Envelope{}, io.EOF
		}
		return Envelope{}, fmt.Errorf("decode envelope: %w", err)
	}
	if env.Ctl == CtlData && (env.Msg == nil || isTypedNil(env.Msg)) {
		return Envelope{}, fmt.Errorf("decode envelope %d->%d: %w", env.From, env.To, ErrNilMessage)
	}
	if d.pooled {
		// Legacy gob peers produce value-typed messages; hand the caller
		// the same pooled pointer forms the binary path does, so the
		// delivery convention does not depend on the sender's codec.
		env.Msg = toPooled(env.Msg)
	}
	return env, nil
}
