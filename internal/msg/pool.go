package msg

// Decode-side message pooling — the last allocation on the wire hot
// path. Encoding a steady-state frame has been allocation-free since
// the binary codec landed (DESIGN.md §9), but decoding still paid one
// heap allocation per data frame: boxing the freshly built value
// (Probe, CtrlProbe, ...) into the Message interface. Boxing a *value*
// type always allocates; boxing a *pointer* never does. So a pooled
// decoder materialises the hot fixed-size message types behind
// sync.Pool-recycled pointers instead: Decode hands the handler a
// *Probe whose pointer word rides the interface for free, and the
// consumer returns it with Recycle once the protocol step that used it
// has run.
//
// Ownership rule: a pooled message belongs to exactly one delivery.
// The component that invokes the consuming step calls Recycle
// afterwards (the TCP inbox's socket reader for synchronous
// handlers, the engine Host's shard loop for asynchronous shard
// ingress); nothing may retain the pointer past that step. Recycle
// zeroes the struct before returning it to the pool so a stale read
// after recycling yields zero values, never another frame's payload.
//
// Only the fixed-size types of the steady-state protocol are pooled.
// Request/Reply/CommWork decode to shared immutable singletons (no
// allocation to save), and the slice-carrying types (WFGD,
// BaselineReport, BaselineDecision) allocate for their payloads anyway
// and are rare, so pooling their headers would complicate the
// ownership story for nothing.

import "sync"

var (
	probePool       = sync.Pool{New: func() any { return new(Probe) }}
	ctrlAcquirePool = sync.Pool{New: func() any { return new(CtrlAcquire) }}
	ctrlGrantedPool = sync.Pool{New: func() any { return new(CtrlGranted) }}
	ctrlReleasePool = sync.Pool{New: func() any { return new(CtrlRelease) }}
	ctrlProbePool   = sync.Pool{New: func() any { return new(CtrlProbe) }}
	ctrlAbortPool   = sync.Pool{New: func() any { return new(CtrlAbort) }}
	commQueryPool   = sync.Pool{New: func() any { return new(CommQuery) }}
	commReplyPool   = sync.Pool{New: func() any { return new(CommReply) }}
)

// Recycle returns a pooled message obtained from a pooled Decoder to
// its pool, zeroing it first so the slot cannot leak one frame's
// payload into the next. It is a no-op for every non-pooled form —
// value-typed messages, the shared singletons, slice-carrying types and
// nil — so delivery paths may call it unconditionally on whatever they
// just dispatched. The caller must not touch the message after
// Recycle.
func Recycle(m Message) {
	switch v := m.(type) {
	case *Probe:
		if v != nil {
			*v = Probe{}
			probePool.Put(v)
		}
	case *CtrlAcquire:
		if v != nil {
			*v = CtrlAcquire{}
			ctrlAcquirePool.Put(v)
		}
	case *CtrlGranted:
		if v != nil {
			*v = CtrlGranted{}
			ctrlGrantedPool.Put(v)
		}
	case *CtrlRelease:
		if v != nil {
			*v = CtrlRelease{}
			ctrlReleasePool.Put(v)
		}
	case *CtrlProbe:
		if v != nil {
			*v = CtrlProbe{}
			ctrlProbePool.Put(v)
		}
	case *CtrlAbort:
		if v != nil {
			*v = CtrlAbort{}
			ctrlAbortPool.Put(v)
		}
	case *CommQuery:
		if v != nil {
			*v = CommQuery{}
			commQueryPool.Put(v)
		}
	case *CommReply:
		if v != nil {
			*v = CommReply{}
			commReplyPool.Put(v)
		}
	}
}

// IsNilPtr reports whether m is a typed-nil pointer form — a non-nil
// interface holding a nil *Probe and friends, the worst-case product of
// a buggy decoder. Protocol step switches use it to reject such frames
// instead of dereferencing them.
func IsNilPtr(m Message) bool {
	switch v := m.(type) {
	case *Probe:
		return v == nil
	case *CtrlAcquire:
		return v == nil
	case *CtrlGranted:
		return v == nil
	case *CtrlRelease:
		return v == nil
	case *CtrlProbe:
		return v == nil
	case *CtrlAbort:
		return v == nil
	case *CommQuery:
		return v == nil
	case *CommReply:
		return v == nil
	case *Request:
		return v == nil
	case *Reply:
		return v == nil
	case *CommWork:
		return v == nil
	case *WFGD:
		return v == nil
	case *BaselineReport:
		return v == nil
	case *BaselineDecision:
		return v == nil
	}
	return false
}

// Deref converts a pooled pointer form back to its value form (boxing a
// fresh interface value — this allocates, so it stays off hot paths).
// Consumers that keep a delivered message past its step (migration
// parking, test recorders) use it; anything else passes through
// unchanged. Typed nils pass through unchanged (see IsNilPtr).
func Deref(m Message) Message {
	if IsNilPtr(m) {
		return m
	}
	switch v := m.(type) {
	case *Probe:
		return *v
	case *CtrlAcquire:
		return *v
	case *CtrlGranted:
		return *v
	case *CtrlRelease:
		return *v
	case *CtrlProbe:
		return *v
	case *CtrlAbort:
		return *v
	case *CommQuery:
		return *v
	case *CommReply:
		return *v
	case *Request:
		return *v
	case *Reply:
		return *v
	case *CommWork:
		return *v
	case *WFGD:
		return *v
	case *BaselineReport:
		return *v
	case *BaselineDecision:
		return *v
	}
	return m
}
