package ddb

import (
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// The validated-ingress layer — typed rejection reasons, the
// ProtocolError record, and the drop-count-report discipline — lives
// once in the engine runtime (internal/engine/ingress.go) since the
// sharded-runtime refactor; this file re-exports the names the DDB
// model speaks so callers keep importing them from ddb.

// ProtocolErrorReason classifies why a controller rejected an ingress
// frame. A rejected frame is dropped, counted in
// ControllerStats.ProtocolErrors, and reported through
// Config.OnProtocolError; it never mutates controller state and never
// panics, so a misbehaving peer controller cannot take a site down with
// one bad message.
type ProtocolErrorReason = engine.Reason

// Ingress rejection reasons for the DDB model.
const (
	// ReasonMisroutedProbe: a CtrlProbe arrived whose edge does not end
	// at this site — a conforming controller only sends a probe along an
	// edge to the edge's destination site.
	ReasonMisroutedProbe = engine.ReasonMisroutedProbe
	// ReasonIncarnationClash: a CtrlAcquire named a transaction whose
	// agent here belongs to a different home/incarnation that still
	// holds or waits for resources, or whose home is this very site. On
	// FIFO links the old incarnation's releases always precede a new
	// acquire, so a clash can only come from a duplicated or forged
	// frame.
	ReasonIncarnationClash = engine.ReasonIncarnationClash
	// ReasonDuplicateAcquire: a CtrlAcquire for a resource the
	// transaction's agent here already holds or queues for. Conforming
	// scripts never re-request a held resource (§6.2).
	ReasonDuplicateAcquire = engine.ReasonDuplicateAcquire
	// ReasonSelfAddressed: the frame claims this controller as its own
	// sender; controllers never message themselves (local work stays
	// local), so the frame is forged or misrouted.
	ReasonSelfAddressed = engine.ReasonSelfAddressed
	// ReasonUnknownType: the decoded message is of a type the DDB model
	// does not speak.
	ReasonUnknownType = engine.ReasonUnknownType
	// ReasonDuplicateTxn: Submit named a transaction that is already
	// running here. The rejected command is reported with this
	// controller as its sender and Kind 0.
	ReasonDuplicateTxn = engine.ReasonDuplicateTxn
)

// ProtocolError describes one ingress frame rejected by a Controller
// (Node/From are the transport identities of the rejecting and sending
// sites).
type ProtocolError = engine.ProtocolError

// rejectStep drops one ingress frame: count it and defer the report
// callback past the critical section. Caller is on the controller's
// serialized step.
func (c *Controller) rejectStep(from id.Site, kind msg.Kind, reason ProtocolErrorReason, detail string) {
	c.ingress.Reject(&c.fx, transport.NodeID(from), kind, reason, detail)
}
