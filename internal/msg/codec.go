package msg

import (
	"bufio"
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
// A data frame always carries Seq >= 1: the receiver reports one with
// Seq == 0 as an error and drops it.
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
// SrcHost names the frame's stream: the sending host. One TCP link
// carries the traffic of every node co-hosted at SrcHost toward the
// receiving host, and Seq/Epoch sequence that shared stream rather than
// the (From,To) pair. From/To still name the node endpoints, so the
// receiving host demultiplexes by To after resequencing by (SrcHost,
// Epoch, Seq). Every TCP endpoint is a host — a node that runs alone
// is the host whose id is its node id — so SrcHost is always set, and
// 0 is an ordinary host id.
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

// Encoder writes binary-encoded envelopes (binary.go) to a stream.
type Encoder struct {
	bw *bufio.Writer
	// started records that the stream's version byte went out.
	started bool
	// frameBuf is the reusable frame staging slice: appendFrame builds
	// each frame into it, then one bufio.Write copies it out. Grown to
	// the largest frame seen, never reallocated per frame in steady
	// state.
	frameBuf []byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{bw: bufio.NewWriter(w)} }

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
// with ErrNilMessage before anything reaches the stream. A steady-state
// frame costs zero heap allocations: the header and payload are staged
// through the encoder's own scratch buffer straight into the stream's
// write buffer.
func (e *Encoder) EncodeBuffered(env Envelope) error {
	if !e.started {
		// One version byte per stream, ahead of the first frame.
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

// AppendFrame appends the complete wire encoding of env to dst and
// returns the grown slice, without touching the encoder's buffered
// stream — the transport builds each frame of a batch into its own
// segment and gathers them into one writev. The first frame of the
// stream is preceded by the version byte (shared `started` state with
// EncodeBuffered, so the two write disciplines may alternate on one
// connection as long as the buffered path is flushed before vector
// writes). On a rejected message dst is returned unchanged.
func (e *Encoder) AppendFrame(dst []byte, env Envelope) ([]byte, error) {
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

// Decoder reads binary-encoded envelopes from a stream. The stream's
// first byte must be the version byte binMagic; any other first byte
// fails every Decode with ErrBadVersion.
type Decoder struct {
	br *bufio.Reader
	// started records that the stream's version byte was read.
	started bool
	// buf is the reusable payload scratch: one buffer per connection,
	// grown to the largest frame seen, never reallocated per frame in
	// steady state.
	buf []byte
	// pooled selects pool-backed pointer messages for the hot fixed-size
	// types: a steady-state data frame then decodes with zero heap
	// allocations (the pointer rides the interface word). The consumer
	// owns each pooled message for exactly one delivery and returns it
	// with Recycle.
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

// FrameBuffered reports whether the next Decode is certain to return
// without reading from the underlying stream: a complete frame (4-byte
// length plus that many bytes) already sits in the read buffer, or the
// buffered length prefix is one Decode rejects outright. It consumes
// nothing. False means "maybe not": before the first Decode has read
// the version byte, on a partial header or body, and for a frame larger
// than the read buffer. A reader uses it to tell "more frames arrived
// with this one" from "the next Decode may block".
func (d *Decoder) FrameBuffered() bool {
	if !d.started {
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
// frames (Ctl != CtlData) legitimately carry none. Every malformed-frame
// rejection — a wrong version byte included — is one of the package's
// sentinel errors and allocates nothing.
func (d *Decoder) Decode() (Envelope, error) {
	if !d.started {
		first, err := d.br.Peek(1)
		if err != nil {
			if err == io.EOF {
				return Envelope{}, io.EOF
			}
			return Envelope{}, fmt.Errorf("decode envelope: %w", err)
		}
		if first[0] != binMagic {
			// Not consumed: every later Decode rejects the stream too.
			return Envelope{}, ErrBadVersion
		}
		d.br.Discard(1)
		d.started = true
	}
	env, buf, err := binDecodeFrame(d.br, d.buf, d.pooled)
	d.buf = buf
	return env, err
}
