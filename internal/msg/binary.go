package msg

// The binary wire format — the transport's one codec. It writes a fixed
// little-endian header plus a flat per-type payload straight into the
// connection's buffered writer, so a steady-state probe frame costs zero
// heap allocations to encode and none to decode into a pooled message.
//
// Stream layout. A binary stream opens with the single version byte
// binMagic (0xB1); everything after it is a sequence of frames. A stream
// with any other first byte is rejected with ErrBadVersion before a
// single frame is read.
//
// Frame layout (all integers little-endian):
//
//	offset size field
//	0      4    len — byte count of the remainder (header tail + payload)
//	4      1    ctl — CtlData / CtlPing / CtlAck
//	5      1    tag — message-type tag (0 on control frames)
//	6      4    from (int32)
//	10     4    to (int32)
//	14     4    srcHost (int32)
//	18     8    seq
//	26     8    epoch
//	34     8    ack
//	42     8    inc
//	50     -    payload — flat per-type field encoding, see binPayload
//
// Rejection is allocation-free: every malformed-frame path returns one
// of the predeclared sentinel errors below, so a hostile peer spraying
// garbage cannot make the receiver allocate per rejected frame.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"

	"repro/internal/id"
)

// Encoding is append-based: appendFrame builds one complete frame onto
// a caller-owned byte slice. The buffered Encoder reuses one such slice
// per stream (so a steady-state frame still costs zero allocations),
// and the transport's vector sender builds one slice per batch slot and
// gathers them into a net.Buffers writev — same core, two write
// disciplines.

// binMagic is the stream-opening version byte of binary format v1.
// Bump it (0xB2, ...) for any layout change; the decoder rejects every
// other leading byte with ErrBadVersion.
const binMagic byte = 0xB1

// binHdrLen is the fixed frame header size including the 4-byte length
// field; binHdrTail is the part the length field counts.
const (
	binHdrLen  = 50
	binHdrTail = binHdrLen - 4
)

// maxFrameLen caps the length prefix a receiver will honour. A frame
// larger than this is rejected before any buffer is sized to it, so a
// hostile length prefix cannot pin memory. The largest legitimate
// payload (a WFGD or BaselineReport edge set) stays far below this in
// any real deployment; raise it deliberately, not accidentally.
const maxFrameLen = 1 << 24

// Sentinel decode/encode errors. They carry no per-frame detail by
// design: the reject path must not allocate (asserted by
// TestBinaryRejectNoAlloc), and the transport closes the connection on
// any decode error regardless.
var (
	// ErrBadVersion rejects a stream whose first byte is not binMagic:
	// another protocol, a newer codec version, or garbage.
	ErrBadVersion = errors.New("msg: stream does not open with the binary codec version byte")
	// ErrNilMessage rejects a data envelope whose Msg is nil — including
	// a typed nil like (*Probe)(nil), which compares unequal to nil but
	// would still crash or confuse any downstream type dispatch.
	ErrNilMessage = errors.New("msg: nil message in data envelope")
	// ErrUnknownMessage rejects an encode of a Message type outside the
	// wire taxonomy (no type tag exists for it).
	ErrUnknownMessage = errors.New("msg: message type not in the wire taxonomy")
	// ErrFrameTooLarge rejects a length prefix above maxFrameLen.
	ErrFrameTooLarge = errors.New("msg: frame length prefix exceeds limit")
	// ErrTruncatedFrame rejects a stream that ends inside a frame.
	ErrTruncatedFrame = errors.New("msg: truncated frame")
	// ErrBadFrame rejects a structurally invalid frame: a length prefix
	// shorter than the fixed header, a payload whose size disagrees with
	// its type tag, or a control frame carrying payload bytes.
	ErrBadFrame = errors.New("msg: malformed frame")
	// ErrUnknownTag rejects a data frame whose type tag this release
	// does not know (a newer peer's type, or garbage).
	ErrUnknownTag = errors.New("msg: unknown message type tag")
	// ErrUnknownCtl rejects a control discriminator this release does
	// not know.
	ErrUnknownCtl = errors.New("msg: unknown control discriminator")
)

// Wire type tags. Stable protocol constants: never renumber, never
// reuse; append only (evolution rules in DESIGN.md §9). Tag 0 marks "no
// message" and appears only on control frames.
const (
	tagNone             byte = 0
	tagRequest          byte = 1
	tagReply            byte = 2
	tagProbe            byte = 3
	tagWFGD             byte = 4
	tagCtrlAcquire      byte = 5
	tagCtrlGranted      byte = 6
	tagCtrlRelease      byte = 7
	tagCtrlProbe        byte = 8
	tagCtrlAbort        byte = 9
	tagBaselineReport   byte = 10
	tagBaselineDecision byte = 11
	tagCommWork         byte = 12
	tagCommQuery        byte = 13
	tagCommReply        byte = 14
	tagCluster          byte = 15
)

// le is the wire byte order.
var le = binary.LittleEndian

// binTagSize returns the wire tag and flat payload size for m. ok is
// false when m's concrete type has no tag — the caller distinguishes
// typed-nil from alien types (classifyBadMessage) off the hot path.
// The pooled pointer forms a pooled Decoder hands out (see pool.go)
// match alongside the value types, so a message can be relayed or
// re-encoded without re-boxing; a typed-nil pointer never matches.
func binTagSize(m Message) (tag byte, size int, ok bool) {
	switch v := m.(type) {
	case Request:
		return tagRequest, 1, true
	case Reply:
		return tagReply, 0, true
	case Probe:
		return tagProbe, 12, true
	case *Probe:
		if v == nil {
			return 0, 0, false
		}
		return tagProbe, 12, true
	case WFGD:
		return tagWFGD, 4 + 8*len(v.Edges), true
	case CtrlAcquire:
		return tagCtrlAcquire, 13, true
	case *CtrlAcquire:
		if v == nil {
			return 0, 0, false
		}
		return tagCtrlAcquire, 13, true
	case CtrlGranted:
		return tagCtrlGranted, 12, true
	case *CtrlGranted:
		if v == nil {
			return 0, 0, false
		}
		return tagCtrlGranted, 12, true
	case CtrlRelease:
		return tagCtrlRelease, 12, true
	case *CtrlRelease:
		if v == nil {
			return 0, 0, false
		}
		return tagCtrlRelease, 12, true
	case CtrlProbe:
		return tagCtrlProbe, 28, true
	case *CtrlProbe:
		if v == nil {
			return 0, 0, false
		}
		return tagCtrlProbe, 28, true
	case CtrlAbort:
		return tagCtrlAbort, 4, true
	case *CtrlAbort:
		if v == nil {
			return 0, 0, false
		}
		return tagCtrlAbort, 4, true
	case BaselineReport:
		return tagBaselineReport, 8 + 16*len(v.Edges), true
	case BaselineDecision:
		return tagBaselineDecision, 4 + 4*len(v.Deadlocked), true
	case CommWork:
		return tagCommWork, 0, true
	case CommQuery:
		return tagCommQuery, 12, true
	case *CommQuery:
		if v == nil {
			return 0, 0, false
		}
		return tagCommQuery, 12, true
	case CommReply:
		return tagCommReply, 12, true
	case *CommReply:
		if v == nil {
			return 0, 0, false
		}
		return tagCommReply, 12, true
	case Cluster:
		return tagCluster, 4 + len(v.Payload), true
	}
	return 0, 0, false
}

// appendFrame appends the complete binary encoding of one envelope to
// dst and returns the grown slice. It is the single encode core: the
// buffered Encoder replays it into a per-stream reusable slice, the
// transport's vector sender into one slice per writev segment. On a
// rejected message dst is returned unchanged.
func appendFrame(dst []byte, env Envelope) ([]byte, error) {
	tag, size := tagNone, 0
	if env.Ctl == CtlData {
		var ok bool
		tag, size, ok = binTagSize(env.Msg)
		if !ok {
			return dst, classifyBadMessage(env.Msg)
		}
	}
	var h [binHdrLen]byte
	le.PutUint32(h[0:], uint32(binHdrTail+size))
	h[4] = env.Ctl
	h[5] = tag
	le.PutUint32(h[6:], uint32(env.From))
	le.PutUint32(h[10:], uint32(env.To))
	le.PutUint32(h[14:], uint32(env.SrcHost))
	le.PutUint64(h[18:], env.Seq)
	le.PutUint64(h[26:], env.Epoch)
	le.PutUint64(h[34:], env.Ack)
	le.PutUint64(h[42:], env.Inc)
	dst = append(dst, h[:]...)
	if tag == tagNone {
		return dst, nil
	}
	return appendPayload(dst, env.Msg), nil
}

// classifyBadMessage turns an unencodable message into the right
// sentinel: nil and typed-nil (a non-nil interface holding a nil
// pointer) are ErrNilMessage, anything else is an alien type. The
// reflection-free check exploits that every taxonomy type is a value
// type — binTagSize already rejected m, so here we only decide *why*,
// off the hot path.
func classifyBadMessage(m Message) error {
	if m == nil || isTypedNil(m) {
		return ErrNilMessage
	}
	return ErrUnknownMessage
}

// appendU32/appendU64 append one little-endian integer.
func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// appendAgent appends one id.Agent as (txn, site).
func appendAgent(dst []byte, a id.Agent) []byte {
	dst = appendU32(dst, uint32(a.Txn))
	return appendU32(dst, uint32(a.Site))
}

// appendPayload appends the flat per-type field encoding of m. The
// pooled pointer forms delegate to the same per-type encoders as their
// value twins, so both forms produce identical bytes.
func appendPayload(dst []byte, m Message) []byte {
	switch v := m.(type) {
	case Request:
		if v.Rejoin {
			return append(dst, 1)
		}
		return append(dst, 0)
	case Reply, CommWork:
		return dst
	case Probe:
		return appendProbe(dst, v)
	case *Probe:
		return appendProbe(dst, *v)
	case WFGD:
		dst = appendU32(dst, uint32(len(v.Edges)))
		for _, e := range v.Edges {
			dst = appendU32(dst, uint32(e.From))
			dst = appendU32(dst, uint32(e.To))
		}
		return dst
	case CtrlAcquire:
		return appendCtrlAcquire(dst, v)
	case *CtrlAcquire:
		return appendCtrlAcquire(dst, *v)
	case CtrlGranted:
		return appendTxnResInc(dst, uint32(v.Txn), uint32(v.Resource), v.Inc)
	case *CtrlGranted:
		return appendTxnResInc(dst, uint32(v.Txn), uint32(v.Resource), v.Inc)
	case CtrlRelease:
		return appendTxnResInc(dst, uint32(v.Txn), uint32(v.Resource), v.Inc)
	case *CtrlRelease:
		return appendTxnResInc(dst, uint32(v.Txn), uint32(v.Resource), v.Inc)
	case CtrlProbe:
		return appendCtrlProbe(dst, v)
	case *CtrlProbe:
		return appendCtrlProbe(dst, *v)
	case CtrlAbort:
		return appendU32(dst, uint32(v.Txn))
	case *CtrlAbort:
		return appendU32(dst, uint32(v.Txn))
	case BaselineReport:
		dst = appendU32(dst, uint32(v.Site))
		dst = appendU32(dst, uint32(len(v.Edges)))
		for _, e := range v.Edges {
			dst = appendAgent(dst, e.From)
			dst = appendAgent(dst, e.To)
		}
		return dst
	case BaselineDecision:
		dst = appendU32(dst, uint32(len(v.Deadlocked)))
		for _, t := range v.Deadlocked {
			dst = appendU32(dst, uint32(t))
		}
		return dst
	case CommQuery:
		return appendU64(appendU32(dst, uint32(v.Init)), v.Seq)
	case *CommQuery:
		return appendU64(appendU32(dst, uint32(v.Init)), v.Seq)
	case CommReply:
		return appendU64(appendU32(dst, uint32(v.Init)), v.Seq)
	case *CommReply:
		return appendU64(appendU32(dst, uint32(v.Init)), v.Seq)
	case Cluster:
		dst = appendU32(dst, uint32(len(v.Payload)))
		return append(dst, v.Payload...)
	}
	return dst // unreachable: binTagSize vetted the type
}

func appendProbe(dst []byte, v Probe) []byte {
	return appendU64(appendU32(dst, uint32(v.Tag.Initiator)), v.Tag.N)
}

func appendCtrlAcquire(dst []byte, v CtrlAcquire) []byte {
	dst = appendU32(dst, uint32(v.Txn))
	dst = appendU32(dst, uint32(v.Resource))
	dst = append(dst, byte(v.Mode))
	return appendU32(dst, v.Inc)
}

func appendTxnResInc(dst []byte, txn, res, inc uint32) []byte {
	return appendU32(appendU32(appendU32(dst, txn), res), inc)
}

func appendCtrlProbe(dst []byte, v CtrlProbe) []byte {
	dst = appendU32(dst, uint32(v.Tag.Initiator))
	dst = appendU64(dst, v.Tag.N)
	dst = appendAgent(dst, v.Edge.From)
	return appendAgent(dst, v.Edge.To)
}

// getAgent reads one id.Agent.
func getAgent(b []byte) id.Agent {
	return id.Agent{Txn: id.Txn(int32(le.Uint32(b[0:]))), Site: id.Site(int32(le.Uint32(b[4:])))}
}

// Pre-boxed singletons for the payload-free message values, so decoding
// them does not allocate. They are safe to share: the types carry no
// mutable state.
var (
	boxedRequest  Message = Request{}
	boxedRejoin   Message = Request{Rejoin: true}
	boxedReply    Message = Reply{}
	boxedCommWork Message = CommWork{}
)

// binDecodeFrame reads one binary frame from br. buf is the decoder's
// reusable payload scratch; the returned slice is its (possibly grown)
// replacement. pooled selects pool-backed pointer messages for the hot
// fixed-size types (see pool.go). io.EOF is returned verbatim only at a
// clean frame boundary; EOF inside a frame is ErrTruncatedFrame.
func binDecodeFrame(br *bufio.Reader, buf []byte, pooled bool) (Envelope, []byte, error) {
	// Peek+Discard instead of ReadFull into a stack array: the array
	// would escape through the io.Reader interface and cost one heap
	// allocation per frame — including per rejected frame.
	lenb, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(lenb) == 0 {
			return Envelope{}, buf, io.EOF
		}
		return Envelope{}, buf, ErrTruncatedFrame
	}
	n := int(le.Uint32(lenb))
	br.Discard(4)
	switch {
	case n < binHdrTail:
		return Envelope{}, buf, ErrBadFrame
	case n > maxFrameLen:
		return Envelope{}, buf, ErrFrameTooLarge
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	b := buf[:n]
	if _, err := io.ReadFull(br, b); err != nil {
		return Envelope{}, buf, ErrTruncatedFrame
	}
	env := Envelope{
		Ctl:     b[0],
		From:    int32(le.Uint32(b[2:])),
		To:      int32(le.Uint32(b[6:])),
		SrcHost: int32(le.Uint32(b[10:])),
		Seq:     le.Uint64(b[14:]),
		Epoch:   le.Uint64(b[22:]),
		Ack:     le.Uint64(b[30:]),
		Inc:     le.Uint64(b[38:]),
	}
	tag := b[1]
	payload := b[binHdrTail:]
	if env.Ctl != CtlData {
		if env.Ctl > CtlAck {
			return Envelope{}, buf, ErrUnknownCtl
		}
		// Control frames carry no message: a tag or payload on one is a
		// framing error, not something to silently skip.
		if tag != tagNone || len(payload) != 0 {
			return Envelope{}, buf, ErrBadFrame
		}
		return env, buf, nil
	}
	m, err := binDecodePayload(tag, payload, pooled)
	if err != nil {
		return Envelope{}, buf, err
	}
	env.Msg = m
	return env, buf, nil
}

// binDecodePayload materialises the message for one type tag. The
// payload size must match the tag exactly — trailing bytes are a
// framing error, and declared element counts must account for every
// remaining byte. With pooled set, the hot fixed-size types come back
// as pool-backed pointers (boxing a pointer into the Message interface
// is allocation-free); the consumer returns them with Recycle.
func binDecodePayload(tag byte, b []byte, pooled bool) (Message, error) {
	switch tag {
	case tagNone:
		return nil, ErrNilMessage // a data frame must carry a message
	case tagRequest:
		if len(b) != 1 || b[0] > 1 {
			return nil, ErrBadFrame
		}
		if b[0] == 1 {
			return boxedRejoin, nil
		}
		return boxedRequest, nil
	case tagReply:
		if len(b) != 0 {
			return nil, ErrBadFrame
		}
		return boxedReply, nil
	case tagProbe:
		if len(b) != 12 {
			return nil, ErrBadFrame
		}
		t := id.Tag{Initiator: id.Proc(int32(le.Uint32(b[0:]))), N: le.Uint64(b[4:])}
		if pooled {
			p := probePool.Get().(*Probe)
			p.Tag = t
			return p, nil
		}
		return Probe{Tag: t}, nil
	case tagWFGD:
		if len(b) < 4 {
			return nil, ErrBadFrame
		}
		count := int(le.Uint32(b[0:]))
		if len(b) != 4+8*count {
			return nil, ErrBadFrame
		}
		edges := make([]id.Edge, count)
		for i := range edges {
			off := 4 + 8*i
			edges[i] = id.Edge{
				From: id.Proc(int32(le.Uint32(b[off:]))),
				To:   id.Proc(int32(le.Uint32(b[off+4:]))),
			}
		}
		return WFGD{Edges: edges}, nil
	case tagCtrlAcquire:
		if len(b) != 13 {
			return nil, ErrBadFrame
		}
		v := CtrlAcquire{
			Txn:      id.Txn(int32(le.Uint32(b[0:]))),
			Resource: id.Resource(int32(le.Uint32(b[4:]))),
			Mode:     LockMode(b[8]),
			Inc:      le.Uint32(b[9:]),
		}
		if pooled {
			p := ctrlAcquirePool.Get().(*CtrlAcquire)
			*p = v
			return p, nil
		}
		return v, nil
	case tagCtrlGranted:
		if len(b) != 12 {
			return nil, ErrBadFrame
		}
		v := CtrlGranted{
			Txn:      id.Txn(int32(le.Uint32(b[0:]))),
			Resource: id.Resource(int32(le.Uint32(b[4:]))),
			Inc:      le.Uint32(b[8:]),
		}
		if pooled {
			p := ctrlGrantedPool.Get().(*CtrlGranted)
			*p = v
			return p, nil
		}
		return v, nil
	case tagCtrlRelease:
		if len(b) != 12 {
			return nil, ErrBadFrame
		}
		v := CtrlRelease{
			Txn:      id.Txn(int32(le.Uint32(b[0:]))),
			Resource: id.Resource(int32(le.Uint32(b[4:]))),
			Inc:      le.Uint32(b[8:]),
		}
		if pooled {
			p := ctrlReleasePool.Get().(*CtrlRelease)
			*p = v
			return p, nil
		}
		return v, nil
	case tagCtrlProbe:
		if len(b) != 28 {
			return nil, ErrBadFrame
		}
		v := CtrlProbe{
			Tag:  id.CtrlTag{Initiator: id.Site(int32(le.Uint32(b[0:]))), N: le.Uint64(b[4:])},
			Edge: id.AgentEdge{From: getAgent(b[12:]), To: getAgent(b[20:])},
		}
		if pooled {
			p := ctrlProbePool.Get().(*CtrlProbe)
			*p = v
			return p, nil
		}
		return v, nil
	case tagCtrlAbort:
		if len(b) != 4 {
			return nil, ErrBadFrame
		}
		if pooled {
			p := ctrlAbortPool.Get().(*CtrlAbort)
			p.Txn = id.Txn(int32(le.Uint32(b[0:])))
			return p, nil
		}
		return CtrlAbort{Txn: id.Txn(int32(le.Uint32(b[0:])))}, nil
	case tagBaselineReport:
		if len(b) < 8 {
			return nil, ErrBadFrame
		}
		count := int(le.Uint32(b[4:]))
		if len(b) != 8+16*count {
			return nil, ErrBadFrame
		}
		edges := make([]id.AgentEdge, count)
		for i := range edges {
			off := 8 + 16*i
			edges[i] = id.AgentEdge{From: getAgent(b[off:]), To: getAgent(b[off+8:])}
		}
		return BaselineReport{Site: id.Site(int32(le.Uint32(b[0:]))), Edges: edges}, nil
	case tagBaselineDecision:
		if len(b) < 4 {
			return nil, ErrBadFrame
		}
		count := int(le.Uint32(b[0:]))
		if len(b) != 4+4*count {
			return nil, ErrBadFrame
		}
		txns := make([]id.Txn, count)
		for i := range txns {
			txns[i] = id.Txn(int32(le.Uint32(b[4+4*i:])))
		}
		return BaselineDecision{Deadlocked: txns}, nil
	case tagCommWork:
		if len(b) != 0 {
			return nil, ErrBadFrame
		}
		return boxedCommWork, nil
	case tagCommQuery:
		if len(b) != 12 {
			return nil, ErrBadFrame
		}
		if pooled {
			p := commQueryPool.Get().(*CommQuery)
			p.Init, p.Seq = id.Proc(int32(le.Uint32(b[0:]))), le.Uint64(b[4:])
			return p, nil
		}
		return CommQuery{Init: id.Proc(int32(le.Uint32(b[0:]))), Seq: le.Uint64(b[4:])}, nil
	case tagCommReply:
		if len(b) != 12 {
			return nil, ErrBadFrame
		}
		if pooled {
			p := commReplyPool.Get().(*CommReply)
			p.Init, p.Seq = id.Proc(int32(le.Uint32(b[0:]))), le.Uint64(b[4:])
			return p, nil
		}
		return CommReply{Init: id.Proc(int32(le.Uint32(b[0:]))), Seq: le.Uint64(b[4:])}, nil
	case tagCluster:
		if len(b) < 4 {
			return nil, ErrBadFrame
		}
		count := int(le.Uint32(b[0:]))
		if len(b) != 4+count {
			return nil, ErrBadFrame
		}
		// The payload must be copied out of the decoder's reusable
		// scratch: the cluster layer holds gossip/migration payloads
		// across frame boundaries.
		var p []byte
		if count > 0 {
			p = make([]byte, count)
			copy(p, b[4:])
		}
		return Cluster{Payload: p}, nil
	}
	return nil, ErrUnknownTag
}
