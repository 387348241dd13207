package engine

import (
	"runtime"
	"sync"

	"repro/internal/transport"
)

// Runner serializes the steps of one process. Exec runs fn mutually
// exclusive with every other Exec of the same Runner and with every
// message step of the process it backs; it is the engines' only
// synchronization primitive, which is what keeps sync.Mutex out of
// core/ddb/commdl entirely.
//
// Only the Host's shardRunner is re-entrant. A delivered or posted step
// on a shard runs its callbacks on the shard goroutine, still inside
// the shard's serialization, so a callback that calls back into a
// public method of a process on that shard (GrantAll from OnRequest is
// the canonical case) issues a nested Exec, which must run inline
// rather than deadlock. The inline runner never sees a nested Exec:
// off a Host every entry is Effects.Exec (Post queues nothing there),
// and that entry runs the step's callbacks only after the runner has
// let go.
type Runner interface {
	Exec(fn func())
}

// poster is implemented by Runners that can queue a step without
// waiting for it (the Host's shardRunner): Post queues cmd to run as a
// step of the process whose Effects fx is (Effects.Post). It reports
// false, having queued nothing, when it cannot take cmd.
type poster interface {
	Post(fx *Effects, cmd Command) bool
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
// mutex: the stand-alone fallback, one per process. It is not
// re-entrant (see Runner).
func NewInlineRunner() Runner {
	return &inlineRunner{}
}

type inlineRunner struct {
	mu sync.Mutex
}

func (r *inlineRunner) Exec(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}

// curGID returns the current goroutine's id, parsed from the
// runtime.Stack header ("goroutine N [...]"). Only the Host uses it: a
// shard loop records its own id once, and shardRunner.Exec parses the
// caller's only while the shard is mid-batch, to run a query made from
// a shard callback inline.
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
