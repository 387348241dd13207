// Package engine is the shared runtime the three detection engines
// (core, ddb, commdl) are hosted on. It factors out everything that is
// not algorithm: the serialization discipline that gives each process
// the paper's atomic-step property, the validated-ingress accounting,
// and the crash-recovery fencing that PRs 3–4 grew separately inside
// each engine.
//
// The runtime has three parts:
//
//   - Runner (runner.go) is the minimal serialization contract an
//     engine needs: Exec(fn) runs fn mutually exclusive with every
//     other step of the same process. Stand-alone engines get the
//     inline Runner, a plain mutex; engines registered on a Host get
//     the owning shard's single-writer loop, whose Runner can also
//     Post a step without waiting for it, and runs an Exec made from a
//     shard callback inline. Only that one need be re-entrant: off a
//     Host a step's callbacks run after the mutex is released (see
//     Effects.Exec), so nothing nests inside it. Either way the engine
//     itself carries no sync.Mutex on its message path.
//
//   - Effects (effects.go) is the per-process buffer a step defers its
//     user callbacks on, and the three entries that run a step and then
//     its callbacks, in order. Effects.Run (steps the runtime
//     serialized) runs them on the same goroutine right after the step.
//     Effects.Exec (a call that waits for its step: queries,
//     stand-alone HandleMessage) runs them on the caller's goroutine,
//     after the Runner lets go. Effects.Post (a command whose caller
//     reads nothing back) queues a Command — a step as data — on a
//     Host shard and returns, so they run on the shard's goroutine; a
//     Runner that cannot post queues nothing, and the caller uses Exec.
//     A re-entering callback's own step's callbacks run before the
//     outer step's remaining ones. Entries are data where it counts:
//     Effects.Call queues two words the process interprets.
//
//   - Host (host.go) owns N shards, each a single goroutine draining a
//     batch queue. Processes are pinned to shards by id, messages
//     between co-hosted processes are direct queue appends that never
//     touch the wire, and one Host multiplexes any number of
//     paper-processes onto one underlying transport endpoint.
//
// Each shard also keeps a timer wheel (wheel.go) that hosted processes
// arm through their Wheel and that expires inside the shard's batches.
//
// Shared plumbing: ingress.go (typed ProtocolError + rejection
// accounting), recovery.go (WaitAborted + peer-down bookkeeping).
package engine

import (
	"repro/internal/msg"
	"repro/internal/transport"
)

// Timers schedules delayed callbacks; durations are nanoseconds. The
// simulator's scheduler and real-time adapters implement it. Engines pace
// scripted work through it, and off a Host it also carries their §4.3
// detection delay (on a Host that goes to the owning shard's Wheel).
type Timers interface {
	After(d int64, fn func())
}

// Logic is the step-function face of an engine process: one serialized
// protocol step per delivered message. A Host shard invokes Step
// directly on its loop goroutine — already serialized, so Step must
// not re-enter the Runner — which keeps the per-message hot path free
// of locks and channel hops. Handlers that do not implement Logic fall
// back to transport.Handler.HandleMessage.
type Logic interface {
	Step(from transport.NodeID, m msg.Message)
}

// RecoveryLogic is implemented by engines that translate transport
// liveness verdicts into protocol moves (wait-abort on peer death,
// fence-clearing on recovery). The Host serializes these steps on the
// owning shard exactly like message deliveries.
type RecoveryLogic interface {
	StepPeerDown(peer transport.NodeID)
	StepPeerUp(peer transport.NodeID)
}

// ReannouncingLogic is implemented by engines that must re-announce
// state to a restarted peer (core re-sends Request{Rejoin} for a
// surviving wait edge). The Host invokes it after StepPeerUp when the
// recovery event carries a restart indication.
type ReannouncingLogic interface {
	StepReannounce(peer transport.NodeID) bool
}

// Snapshotter is implemented by engines whose complete protocol state
// can be serialized into a checkpoint and reconstituted after a crash.
// MarshalState must capture everything the engine's Snapshot()
// fingerprint enumerates — the wait/lock graph, probe computations,
// dedup frontiers, declaration state — and must be deterministic:
// equal states marshal to equal bytes (iterate maps in sorted key
// order). Observability counters are excluded, matching the Snapshot
// philosophy: they describe the run, not the state.
//
// Both methods are invoked by the Host on the process's owning shard
// (or while every shard is parked at a checkpoint barrier), so they
// need no locking of their own. RestoreState replaces the process's
// state wholesale; it is only called on a freshly constructed process
// before any message delivery.
type Snapshotter interface {
	MarshalState() []byte
	RestoreState(data []byte) error
}
