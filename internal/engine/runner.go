package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

// Runner serializes the steps of one process. Exec runs fn mutually
// exclusive with every other Exec of the same Runner and with every
// message step of the process it backs; it is the engines' only
// synchronization primitive, which is what keeps sync.Mutex out of
// core/ddb/commdl entirely.
//
// Exec must be reentrant: an engine callback fired inside a step may
// call back into a public method of the same process (GrantAll from
// OnRequest is the canonical case), and that nested Exec must run
// inline rather than deadlock.
type Runner interface {
	Exec(fn func())
}

// poster is implemented by Runners that can queue a step without
// waiting for it (the Host's shardRunner). Post reports false, having
// queued nothing, when it cannot take fn; Effects.Post then falls back
// to Exec.
type poster interface {
	Post(fn func()) bool
}

// RunnerProvider is implemented by transports that supply their own
// serialization (the Host's shard loops). Engines ask their transport
// for a Runner at construction; transports without one get the inline
// fallback.
type RunnerProvider interface {
	Runner(node transport.NodeID) Runner
}

// RunnerFor returns the Runner the transport provides for node, or an
// inline mutex-backed Runner when the transport has none. It is safe
// to call before the node is registered (a Host pins shards by id, not
// by registration order).
func RunnerFor(t transport.Transport, node transport.NodeID) Runner {
	if rp, ok := t.(RunnerProvider); ok {
		if r := rp.Runner(node); r != nil {
			return r
		}
	}
	return NewInlineRunner()
}

// NewInlineRunner returns a Runner that serializes with a private
// mutex and tracks the executing goroutine so nested Exec calls run
// inline. This is the stand-alone fallback: one per process, same
// semantics the old per-process mutex had, but owned by the runtime
// instead of duplicated in each engine.
func NewInlineRunner() Runner {
	return &inlineRunner{}
}

type inlineRunner struct {
	mu  sync.Mutex
	gid atomic.Uint64
}

func (r *inlineRunner) Exec(fn func()) {
	g := curGID()
	if r.gid.Load() == g {
		fn() // nested call from within a step: already serialized
		return
	}
	r.mu.Lock()
	r.gid.Store(g)
	defer func() {
		r.gid.Store(0)
		r.mu.Unlock()
	}()
	fn()
}

// curGID returns the current goroutine's id, parsed from the
// runtime.Stack header ("goroutine N [...]"). It is deliberately kept
// off the hot paths: shards call Logic.Step directly, and commands on a
// Host are posted (Effects.Post), which needs no goroutine identity.
// What still pays for it is every step through the inline runner, and a
// shardRunner.Exec issued while its shard is mid-batch (a query made
// from a shard callback, which must run inline).
func curGID() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine " (10 bytes) and accumulate digits.
	var gid uint64
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		gid = gid*10 + uint64(c-'0')
	}
	return gid
}
