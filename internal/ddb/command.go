package ddb

import (
	"sync"

	"repro/internal/id"
)

// A controller's commands — Submit, Abort, AbortLocal, PeerDown and the
// continuations its Timers fire — are posted to its shard as data, not
// as closures: a pooled command names the operation and carries its
// words, and Step interprets it on the shard (engine.Command). Posting
// one allocates nothing in the steady state.

// commandOp names what a posted command does.
type commandOp uint8

const (
	opSubmit     commandOp = iota + 1 // start txn (inc, steps) unless it is running
	opAbortLocal                      // abort txn if it is a running home transaction
	opAbort                           // abort txn here, or ask its agent's home to
	opPeerDown                        // sever every dependency on site
	opAdvance                         // continue running txn incarnation inc: next lock point
	opCommit                          // continue running txn incarnation inc: commit
	opDetect                          // initiate for txn if its wait numbered wait is current
)

// command is one posted call. Step recycles it before it does the work,
// so a command is stepped once and is never touched after.
type command struct {
	c     *Controller
	op    commandOp
	txn   id.Txn
	inc   uint32
	site  id.Site
	wait  uint64
	steps []LockStep
}

var commandPool = sync.Pool{New: func() any { return new(command) }}

// newCommand takes a command for op on txn from the pool; the caller
// fills in the words op needs beyond those.
func (c *Controller) newCommand(op commandOp, txn id.Txn) *command {
	cmd := commandPool.Get().(*command)
	cmd.c, cmd.op, cmd.txn = c, op, txn
	return cmd
}

// free returns cmd to the pool, cleared.
func (cmd *command) free() {
	*cmd = command{}
	commandPool.Put(cmd)
}

// post runs cmd as a step of c: queued on c's shard when it can take
// it, at once through Exec otherwise (off a Host, or once it is closed).
func (c *Controller) post(cmd *command) {
	if !c.fx.Post(c.run, cmd) {
		c.fx.Exec(c.run, cmd.Step)
	}
}

// Step implements engine.Command.
func (cmd *command) Step() {
	k := *cmd
	cmd.free()
	c := k.c
	switch k.op {
	case opSubmit:
		// The rejection of a running txn is counted and reported by
		// submitStep; a posted Submit has no caller to return it to.
		_ = c.submitStep(k.txn, k.inc, k.steps)
	case opAbortLocal:
		if ts, ok := c.txns[k.txn]; ok && ts.status == TxnRunning {
			c.abortStep(ts)
		}
	case opAbort:
		c.abortAnyStep(k.txn)
	case opPeerDown:
		c.peerDownStep(k.site)
	case opAdvance, opCommit:
		if ts, ok := c.txns[k.txn]; ok && ts.inc == k.inc && ts.status == TxnRunning {
			if k.op == opCommit {
				c.commitStep(ts)
			} else {
				c.advanceStep(ts)
			}
		}
	case opDetect:
		c.detectStep(k.txn, k.wait)
	}
}
