package engine

import (
	"fmt"
	"reflect"

	"repro/internal/msg"
	"repro/internal/transport"
)

// Reason classifies why an ingress frame was rejected by the validated
// ingress layer. A rejected frame is dropped, counted, and reported
// through the engine's OnProtocolError callback; it never mutates
// protocol state and never panics the process, so a misbehaving or
// forged peer cannot take the detection plane down with one bad
// message. The enum is the union of every engine's rejection reasons —
// hoisted here so the accounting, naming, and drop discipline exist
// once instead of per engine.
type Reason int

// Ingress rejection reasons.
const (
	// ReasonStrayReply: a Reply arrived with no outstanding request to
	// the sender — under G1–G4 a reply always answers an edge the
	// receiver created, so a stray one is duplicated or forged.
	ReasonStrayReply Reason = iota + 1
	// ReasonDuplicateRequest: a Request arrived while the sender's
	// previous request is still unanswered. G1 forbids a conforming
	// sender from re-requesting an existing edge, so the frame is a
	// duplicate or a forgery.
	ReasonDuplicateRequest
	// ReasonForgedProbeTag: a meaningful probe carried the receiver's
	// own initiator id with a computation number it never issued — only
	// a forged frame can be "ahead" of its own initiator.
	ReasonForgedProbeTag
	// ReasonSelfAddressed: the frame claims the receiver as its own
	// sender. No conforming process sends to itself, so the frame is
	// forged or misrouted.
	ReasonSelfAddressed
	// ReasonUnknownType: the decoded message is of a type this engine
	// does not speak (another engine's frame, or a type unknown to the
	// taxonomy altogether).
	ReasonUnknownType
	// ReasonMisroutedProbe: a DDB probe addressed to a different
	// controller than the one that received it.
	ReasonMisroutedProbe
	// ReasonIncarnationClash: a DDB control frame referenced a
	// transaction incarnation the controller knows to be stale.
	ReasonIncarnationClash
	// ReasonDuplicateAcquire: an acquire arrived for an agent that
	// already holds or already awaits the resource.
	ReasonDuplicateAcquire
	// ReasonForgedQueryTag: an OR-model query carried the receiver's
	// own engager id with a sequence number ahead of any the receiver
	// issued (commdl's analogue of a forged probe tag).
	ReasonForgedQueryTag
	// ReasonDuplicateTxn: a DDB Submit named a transaction that is
	// already running at its home controller. It is a command, not a
	// frame: the ProtocolError names the controller as its own sender,
	// with Kind 0.
	ReasonDuplicateTxn
)

var reasonNames = map[Reason]string{
	ReasonStrayReply:       "stray-reply",
	ReasonDuplicateRequest: "duplicate-request",
	ReasonForgedProbeTag:   "forged-probe-tag",
	ReasonSelfAddressed:    "self-addressed",
	ReasonUnknownType:      "unknown-type",
	ReasonMisroutedProbe:   "misrouted-probe",
	ReasonIncarnationClash: "incarnation-clash",
	ReasonDuplicateAcquire: "duplicate-acquire",
	ReasonForgedQueryTag:   "forged-query-tag",
	ReasonDuplicateTxn:     "duplicate-txn",
}

// String returns the lower-case name of the reason.
func (r Reason) String() string {
	if s, ok := reasonNames[r]; ok {
		return s
	}
	return fmt.Sprintf("protocol-error(%d)", int(r))
}

// ProtocolError describes one ingress frame rejected by an engine
// process. It is delivered through the engine's OnProtocolError
// callback after the offending frame has been dropped.
type ProtocolError struct {
	// Node is the transport identity of the process that rejected the
	// frame (an id.Proc or id.Site, depending on the engine).
	Node transport.NodeID
	// From is the frame's claimed sender.
	From transport.NodeID
	// Kind is the offending message's kind; 0 when the type was unknown
	// to the message taxonomy entirely.
	Kind msg.Kind
	// Reason classifies the rejection.
	Reason Reason
	// Detail is a human-readable elaboration.
	Detail string
}

// Error implements error.
func (e ProtocolError) Error() string {
	return fmt.Sprintf("node %d: %v from %d: %s", e.Node, e.Reason, e.From, e.Detail)
}

// Ingress is the per-process rejection accounting every engine embeds.
// Its methods must be called from within the process's serialized step
// (the Runner or shard loop), which is why the counter needs no
// atomics.
type Ingress struct {
	node    transport.NodeID
	errors  uint64
	onError func(ProtocolError)
}

// NewIngress returns the accounting state for one process. onError may
// be nil.
func NewIngress(node transport.NodeID, onError func(ProtocolError)) Ingress {
	return Ingress{node: node, onError: onError}
}

// Reject drops one ingress frame: count it and defer the report
// callback on fx past the end of the step.
func (in *Ingress) Reject(fx *Effects, from transport.NodeID, kind msg.Kind, reason Reason, detail string) {
	in.errors++
	if cb := in.onError; cb != nil {
		pe := ProtocolError{Node: in.node, From: from, Kind: kind, Reason: reason, Detail: detail}
		fx.Defer(func() { cb(pe) })
	}
}

// Errors returns how many frames this process has rejected. Like
// Reject it must be read from within the process's serialized step.
func (in *Ingress) Errors() uint64 { return in.errors }

// KindOf returns the message kind, or 0 for a nil or out-of-taxonomy
// message value (possible only with a hand-crafted message). A typed
// nil — a non-nil interface holding a nil pointer, e.g. (*Probe)(nil)
// — must not reach Kind(): the taxonomy's value-receiver methods would
// dereference it. Reflection is fine here; KindOf runs only on the
// reject path.
func KindOf(m msg.Message) msg.Kind {
	if m == nil {
		return 0
	}
	if v := reflect.ValueOf(m); v.Kind() == reflect.Pointer && v.IsNil() {
		return 0
	}
	return m.Kind()
}
