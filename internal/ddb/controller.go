package ddb

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// InitiationMode selects when a controller starts probe computations.
type InitiationMode int

// Initiation modes for the DDB detector.
const (
	// InitiateOnWaitDelay starts a probe computation for an agent that
	// has been continuously waiting for Delay nanoseconds (§4.3's timer
	// rule applied per process).
	InitiateOnWaitDelay InitiationMode = iota + 1
	// InitiateManual leaves initiation to explicit Check calls, and
	// pacing to whoever owns the Timers: every lock point is handed to
	// Timers.After even at zero delay, so a caller can hold transactions
	// between lock points (the handler tests and the benchmark's
	// probe-cost rung build their standing deadlocks that way). For the
	// same reason Submit waits for its step on a Host in this mode
	// instead of posting it: when it returns, the first lock point has
	// been taken and the next one is parked in the Timers.
	InitiateManual
	// InitiateDisabled turns the CMH detector off entirely (used when a
	// baseline detector owns the cluster).
	InitiateDisabled
)

// VictimPolicy selects which transaction a declaring controller aborts
// when Resolve is on. The paper defers deadlock breaking to its
// references; these are the standard options measured by the E12
// ablation.
type VictimPolicy int

// Victim policies.
const (
	// VictimDetected aborts the transaction of the process the
	// computation declared deadlocked (default).
	VictimDetected VictimPolicy = iota
	// VictimYoungest aborts the youngest of the two transactions the
	// declaring controller can prove are on the cycle: the detected
	// target and the transaction whose probe closed the cycle (the
	// final meaningful probe's source waits on a chain that reaches
	// the target, and the target's chain reaches it back). Youngest is
	// approximated by the highest transaction id — the usual
	// "least work lost" heuristic when ids are assigned in start
	// order.
	VictimYoungest
	// VictimRandom aborts one of the same two provable cycle members
	// chosen by an unbiased coin. The coin is a hash of the computation
	// tag and the candidate, so a seeded simulation replays the same
	// victims while distinct declarations still split evenly — the
	// "no policy information" baseline the E12/E17 ablations compare
	// the heuristics against.
	VictimRandom
)

// String names the policy.
func (v VictimPolicy) String() string {
	switch v {
	case VictimDetected:
		return "detected"
	case VictimYoungest:
		return "youngest"
	case VictimRandom:
		return "random"
	default:
		return "victim-policy-unknown"
	}
}

// LockStep is one entry of a transaction script: acquire the resource
// in the given mode.
type LockStep struct {
	Resource id.Resource
	Mode     msg.LockMode
}

// TxnStatus is the lifecycle state of a home transaction. A controller
// keeps running transactions only: the other two values last for the
// finishing step (its own release cascade must see the transaction as
// not running) and appear in checkpoints written before finished
// transactions were forgotten, which RestoreState drops.
type TxnStatus int

// Transaction states.
const (
	TxnRunning TxnStatus = iota + 1
	TxnCommitted
	TxnAborted
)

// Config configures a Controller.
type Config struct {
	// Site is this controller's identity; it registers on the transport
	// node id equal to the site number.
	Site id.Site
	// Transport carries inter-controller traffic.
	Transport transport.Transport
	// Timers schedules script steps and hold times, and detection
	// delays too unless the transport is a Host: there the detection
	// timer goes on the owning shard's wheel.
	Timers engine.Timers
	// ResourceHome maps each resource to the site that manages it.
	ResourceHome func(id.Resource) id.Site

	// Mode selects the probe initiation rule; default
	// InitiateOnWaitDelay with Delay 1ms.
	Mode InitiationMode
	// Delay is the continuous-wait threshold T in nanoseconds.
	Delay int64
	// Resolve, when true, aborts the detected transaction (victim =
	// the transaction of the process declared deadlocked).
	Resolve bool
	// Victim selects the abort target under Resolve.
	Victim VictimPolicy
	// PaperEdgesOnly disables the holder-home edge extension and runs
	// strictly the §6.4 edge set (intra-controller + acquisition
	// edges). Used by the E11 ablation to show the extension is
	// necessary once transactions hold remote locks: with this set, a
	// cycle through a remotely held resource is invisible.
	PaperEdgesOnly bool
	// StepDelay is the virtual time between a grant and the next
	// script step (models computation between lock points).
	StepDelay int64
	// HoldTime is the virtual time a transaction holds all its locks
	// before committing.
	HoldTime int64

	// The callbacks below run after the step that caused them, never
	// inside it, and may call back into the controller. Under a Host
	// they run on the controller's shard goroutine, except those of a
	// step some caller waits for (a query such as CheckAgent or
	// CheckAll, or Submit under InitiateManual), which run on that
	// caller's goroutine. Off a Host they run on the goroutine that
	// delivered the message, called the method or fired the timer.
	// A callback that blocks stalls its shard.

	// OnDeadlock fires when this controller declares a process
	// deadlocked.
	OnDeadlock func(target id.Agent, tag id.CtrlTag)
	// OnCommit fires when a home transaction commits.
	OnCommit func(txn id.Txn)
	// OnAbort fires when a home transaction aborts (victim resolution
	// or explicit Abort).
	OnAbort func(txn id.Txn)
	// OnWaitStart/OnWaitEnd bracket every local lock wait and every
	// remote acquisition wait of this controller's processes; the
	// timeout baseline hangs off these.
	OnWaitStart func(agent id.Agent)
	OnWaitEnd   func(agent id.Agent)
	// OnProtocolError fires for every ingress frame the controller
	// rejected as invalid against its local protocol state, and for
	// every Submit of a transaction already running. The frame or
	// command has already been dropped and counted.
	OnProtocolError func(ProtocolError)
}

// agentState is the per-site process (Ti, Sj) of §6.2.
type agentState struct {
	txn  id.Txn
	home id.Site
	inc  uint32
	held assoc[id.Resource, msg.LockMode]
	// waiting is set while the agent has a queued local lock request.
	waiting     id.Resource
	waitingMode msg.LockMode
	hasWaiting  bool
	// pendingAck is set on a remote agent between receiving a
	// CtrlAcquire and sending the CtrlGranted — exactly the lifetime of
	// the incoming black inter-controller edge (§6.4).
	pendingAck    id.Resource
	hasPendingAck bool
	// wait is the number of the agent's current wait, which the
	// detection timer armed for that wait carries (armDetectionStep); 0
	// while the agent is not waiting or no timer was armed.
	wait uint64
}

// txnState is a home transaction.
type txnState struct {
	txn      id.Txn
	inc      uint32
	steps    []LockStep
	next     int
	status   TxnStatus
	holdTime int64
	// pendingRemote maps each in-flight remote acquisition to its
	// target site: the outgoing inter-controller edges of §6.4 (the
	// home controller knows they exist but not their colour — P3).
	pendingRemote assoc[id.Resource, id.Site]
	// heldRemote maps each remotely held resource to the site holding
	// it, for release at commit/abort.
	heldRemote assoc[id.Resource, id.Site]
}

// Controller is the local operating system of one site (§6.2): it
// schedules its transactions' agents, manages its lock table, routes
// inter-controller messages, and runs the probe computation of §6.6.
type Controller struct {
	cfg Config

	// run serializes every step of this controller (message delivery,
	// public API call, timer firing, recovery verdict); fx holds the
	// callbacks a step defers until it is over; ingress is the runtime's
	// shared rejection accounting. See internal/engine.
	run     engine.Runner
	fx      engine.Effects
	ingress engine.Ingress
	// wheel is the owning shard's timer wheel when the transport is a
	// Host, nil otherwise; waits numbers the waits the detection timers
	// are armed for (armDetectionStep).
	wheel *engine.Wheel
	waits uint64

	// agents and txns hold the transactions in flight and nothing else:
	// a transaction is forgotten in the step that finishes it (DESIGN.md
	// §10, "What a finished transaction leaves behind") and its states go
	// to the free lists, to be reset by whoever takes them next. Closures
	// that outlive a step therefore capture ids, never these pointers.
	locks      *lockTable
	agents     map[id.Txn]*agentState
	txns       map[id.Txn]*txnState
	freeAgents []*agentState
	freeTxns   []*txnState
	// ready lists the transactions whose next lock point is due now: a
	// zero StepDelay is not a timer. drainReadyStep, the Settle of fx,
	// empties it before the step that filled it returns.
	ready []*txnState

	// Probe-computation state; see probe.go. walkSeen and walkQueue are
	// labelReachableStep's scratch, empty between steps.
	nextN     uint64
	windows   map[id.Site]*initWindow
	walkSeen  map[id.Txn]bool
	walkQueue []id.Txn

	// Counters surfaced by Stats.
	computations   uint64
	probesSent     uint64
	probesDropped  uint64
	declaredLocal  uint64
	declaredRemote uint64
	commits        uint64
	aborts         uint64
	agentsPurged   uint64
	peerAborts     uint64
}

// NewController creates a controller and registers it on the transport.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("controller %v: nil transport", cfg.Site)
	}
	if cfg.ResourceHome == nil {
		return nil, fmt.Errorf("controller %v: nil ResourceHome", cfg.Site)
	}
	if cfg.Mode == 0 {
		cfg.Mode = InitiateOnWaitDelay
	}
	if cfg.Mode == InitiateOnWaitDelay {
		if cfg.Timers == nil {
			return nil, fmt.Errorf("controller %v: InitiateOnWaitDelay requires Timers", cfg.Site)
		}
		if cfg.Delay <= 0 {
			cfg.Delay = 1_000_000 // 1ms default
		}
	}
	node := transport.NodeID(cfg.Site)
	c := &Controller{
		cfg:      cfg,
		run:      engine.RunnerFor(cfg.Transport, node),
		ingress:  engine.NewIngress(node, cfg.OnProtocolError),
		wheel:    engine.WheelFor(cfg.Transport, node),
		locks:    newLockTable(),
		agents:   make(map[id.Txn]*agentState),
		txns:     make(map[id.Txn]*txnState),
		windows:  make(map[id.Site]*initWindow),
		walkSeen: make(map[id.Txn]bool),
	}
	c.fx.Settle = c.drainReadyStep
	c.fx.Callback = c.callback
	cfg.Transport.Register(node, c)
	return c, nil
}

// The per-transaction callbacks a step defers with fx.Call, as data:
// which one, and for which transaction. Deferring one builds nothing.
const (
	callCommit uint64 = iota + 1
	callAbort
	callWaitStart
	callWaitEnd
)

// callback is fx's Callback: it runs the Config callback op names for
// txn.
func (c *Controller) callback(op, txn uint64) {
	t := id.Txn(txn)
	switch op {
	case callCommit:
		c.cfg.OnCommit(t)
	case callAbort:
		c.cfg.OnAbort(t)
	case callWaitStart:
		c.cfg.OnWaitStart(id.Agent{Txn: t, Site: c.cfg.Site})
	case callWaitEnd:
		c.cfg.OnWaitEnd(id.Agent{Txn: t, Site: c.cfg.Site})
	}
}

// Site returns the controller's site identity.
func (c *Controller) Site() id.Site { return c.cfg.Site }

// Submit registers a home transaction with the given script and starts
// executing it. inc distinguishes incarnations across abort/retry.
//
// On a Host, Submit posts the step to the controller's shard and
// returns nil at once; a txn that is already running is rejected there,
// counted in ProtocolErrors and reported to OnProtocolError with
// ReasonDuplicateTxn. Off a Host the step has run by the time Submit
// returns, which then also returns that rejection as its error. Under
// InitiateManual, Submit waits for its step on a Host too (see
// InitiateManual).
func (c *Controller) Submit(txn id.Txn, inc uint32, steps []LockStep) error {
	if c.cfg.Mode != InitiateManual {
		cmd := c.newCommand(opSubmit, txn)
		cmd.inc, cmd.steps = inc, steps
		if c.fx.Post(c.run, cmd) {
			return nil
		}
		cmd.free()
	}
	var err error
	c.fx.Exec(c.run, func() { err = c.submitStep(txn, inc, steps) })
	return err
}

// submitStep starts a home transaction unless it is already running.
func (c *Controller) submitStep(txn id.Txn, inc uint32, steps []LockStep) error {
	if old, exists := c.txns[txn]; exists && old.status == TxnRunning {
		detail := fmt.Sprintf("txn %v already running", txn)
		c.rejectStep(c.cfg.Site, 0, ReasonDuplicateTxn, detail)
		return fmt.Errorf("controller %v: %s", c.cfg.Site, detail)
	}
	ts := take(&c.freeTxns)
	*ts = txnState{
		txn:           txn,
		inc:           inc,
		steps:         steps,
		status:        TxnRunning,
		holdTime:      c.cfg.HoldTime,
		pendingRemote: ts.pendingRemote[:0],
		heldRemote:    ts.heldRemote[:0],
	}
	c.txns[txn] = ts
	c.newAgentStep(txn, c.cfg.Site, inc)
	c.advanceStep(ts)
	return nil
}

// newAgentStep registers an agent of txn at this site, on a recycled
// state if there is one.
func (c *Controller) newAgentStep(txn id.Txn, home id.Site, inc uint32) *agentState {
	a := take(&c.freeAgents)
	*a = agentState{txn: txn, home: home, inc: inc, held: a.held[:0]}
	c.agents[txn] = a
	return a
}

// dropAgentStep forgets an agent that holds nothing and is queued for
// nothing; a remote acquisition it still awaits ends with it.
func (c *Controller) dropAgentStep(a *agentState) {
	a.wait = 0
	delete(c.agents, a.txn)
	c.freeAgents = append(c.freeAgents, a)
}

// drainReadyStep runs the ready transactions' next lock points, in the
// order they became ready, until none is left. It is fx's Settle, so
// every step ends here before its callbacks run: a continuation reached
// from a grant cascade runs after the cascade, never inside it, and
// consecutive uncontended lock points are one atomic step.
func (c *Controller) drainReadyStep() {
	for i := 0; i < len(c.ready); i++ {
		c.advanceStep(c.ready[i])
	}
	// Cleared, not just truncated: a finished transaction's state is on
	// the free list by now and must be neither pinned nor revisited here.
	clear(c.ready)
	c.ready = c.ready[:0]
}

// immediate reports whether a pacing delay of d is no delay at all: the
// continuation then runs inside the current step instead of going
// through Timers. The one exception is InitiateManual, and it comes
// with a second one: Submit's rendezvous on a Host in that mode. Both
// serve callers that pace lock points through their own Timers, and
// both go once those callers set an explicit StepDelay instead.
func (c *Controller) immediate(d int64) bool {
	return d <= 0 && c.cfg.Mode != InitiateManual
}

// afterDelay continues a running transaction after d nanoseconds with
// op (opAdvance or opCommit), unless it was aborted (and perhaps
// resubmitted under a new incarnation) in the meantime.
func (c *Controller) afterDelay(ts *txnState, d int64, op commandOp) {
	txn, inc := ts.txn, ts.inc
	c.cfg.Timers.After(d, func() {
		cmd := c.newCommand(op, txn)
		cmd.inc = inc
		c.post(cmd)
	})
}

// advanceStep executes the transaction's next script step, or commits
// it (after HoldTime, if there is one) when the script is done.
func (c *Controller) advanceStep(ts *txnState) {
	if ts.status != TxnRunning {
		return
	}
	if ts.next >= len(ts.steps) {
		if c.immediate(ts.holdTime) {
			c.commitStep(ts)
		} else {
			c.afterDelay(ts, ts.holdTime, opCommit)
		}
		return
	}
	step := ts.steps[ts.next]
	ts.next++
	home := c.cfg.ResourceHome(step.Resource)
	if home == c.cfg.Site {
		c.acquireLocalStep(ts, step)
		return
	}
	// Remote resource: create the grey inter-controller edge (G3 of the
	// DDB axioms) by sending the acquisition to the managing site.
	ts.pendingRemote.put(step.Resource, home)
	c.send(home, msg.NewCtrlAcquire(msg.CtrlAcquire{Txn: ts.txn, Resource: step.Resource, Mode: step.Mode, Inc: ts.inc}))
	c.waitStartStep(c.agents[ts.txn])
}

// acquireLocalStep requests a locally managed resource for the home
// agent.
func (c *Controller) acquireLocalStep(ts *txnState, step LockStep) {
	a := c.agents[ts.txn]
	granted, err := c.locks.acquire(step.Resource, ts.txn, step.Mode)
	if err != nil {
		panic(fmt.Sprintf("controller %v: %v", c.cfg.Site, err))
	}
	if granted {
		a.held.put(step.Resource, step.Mode)
		c.scheduleNextStepStep(ts)
		return
	}
	a.waiting = step.Resource
	a.waitingMode = step.Mode
	a.hasWaiting = true
	c.waitStartStep(a)
}

// scheduleNextStepStep arranges the next script step after StepDelay;
// with none, the transaction goes on the ready list and advances before
// the current step returns.
func (c *Controller) scheduleNextStepStep(ts *txnState) {
	if c.immediate(c.cfg.StepDelay) {
		c.ready = append(c.ready, ts)
	} else {
		c.afterDelay(ts, c.cfg.StepDelay, opAdvance)
	}
}

// commitStep releases everything the transaction holds and marks it
// committed.
func (c *Controller) commitStep(ts *txnState) {
	ts.status = TxnCommitted
	c.commits++
	c.releaseAllStep(ts)
	if c.cfg.OnCommit != nil {
		c.fx.Call(callCommit, uint64(ts.txn))
	}
}

// AbortLocal aborts a home transaction (victim resolution or caller
// decision). It is a no-op if the transaction is not running. On a Host
// it is posted to the controller's shard, like Submit.
func (c *Controller) AbortLocal(txn id.Txn) {
	c.post(c.newCommand(opAbortLocal, txn))
}

// abortStep cancels waits, releases holds and marks the transaction
// aborted.
func (c *Controller) abortStep(ts *txnState) {
	ts.status = TxnAborted
	c.aborts++
	c.releaseAllStep(ts)
	if c.cfg.OnAbort != nil {
		c.fx.Call(callAbort, uint64(ts.txn))
	}
}

// releaseAllStep tears down every hold and wait of a finished home
// transaction — local locks via the lock table (cascading grants),
// remote holds and pending acquisitions via CtrlRelease — and forgets
// it: a frame that names it from here on finds no entry, which every
// handler already answers as it answers "not running".
func (c *Controller) releaseAllStep(ts *txnState) {
	// Release in resource order (the collections are kept sorted): it
	// determines the grant-cascade and message order, and replay-based
	// exploration (and seeded reproducibility) need that to be a pure
	// function of state.
	if a := c.agents[ts.txn]; a != nil {
		if a.hasWaiting {
			c.cancelLocalWaitStep(a)
		}
		for _, h := range a.held {
			c.releaseLocalStep(h.key, ts.txn)
		}
		c.dropAgentStep(a)
	}
	for _, p := range ts.pendingRemote {
		c.send(p.val, msg.NewCtrlRelease(msg.CtrlRelease{Txn: ts.txn, Resource: p.key, Inc: ts.inc}))
	}
	for _, h := range ts.heldRemote {
		c.send(h.val, msg.NewCtrlRelease(msg.CtrlRelease{Txn: ts.txn, Resource: h.key, Inc: ts.inc}))
	}
	delete(c.txns, ts.txn)
	c.freeTxns = append(c.freeTxns, ts)
}

// cancelLocalWaitStep removes an agent's queued lock request.
func (c *Controller) cancelLocalWaitStep(a *agentState) {
	r := a.waiting
	a.hasWaiting = false
	a.hasPendingAck = false
	c.waitEndStep(a)
	// Removing a queued entry can unblock compatible requests behind it.
	c.grantCascadeStep(r, c.locks.release(r, a.txn))
}

// releaseLocalStep releases a held local lock and processes the
// resulting grants.
func (c *Controller) releaseLocalStep(r id.Resource, txn id.Txn) {
	c.grantCascadeStep(r, c.locks.release(r, txn))
}

// grantCascadeStep delivers lock grants produced by a release: remote
// agents acknowledge to their home controller (whitening the
// inter-controller edge, G5), home agents advance their scripts.
func (c *Controller) grantCascadeStep(r id.Resource, granted []waitEntry) {
	for _, w := range granted {
		a, ok := c.agents[w.txn]
		if !ok {
			panic(fmt.Sprintf("controller %v: grant of %v to unknown agent %v", c.cfg.Site, r, w.txn))
		}
		a.held.put(r, w.mode)
		a.hasWaiting = false
		c.waitEndStep(a)
		if a.hasPendingAck && a.pendingAck == r {
			// Remote agent: tell home the resource is acquired.
			a.hasPendingAck = false
			c.send(a.home, msg.NewCtrlGranted(msg.CtrlGranted{Txn: a.txn, Resource: r, Inc: a.inc}))
			continue
		}
		if ts, home := c.txns[a.txn]; home && ts.status == TxnRunning {
			c.scheduleNextStepStep(ts)
		}
	}
}

// waitStartStep opens a wait of the agent: it emits the wait-start
// event and, under InitiateOnWaitDelay, arms the §4.3 timer for this
// wait.
func (c *Controller) waitStartStep(a *agentState) {
	if a == nil {
		return
	}
	if c.cfg.OnWaitStart != nil {
		c.fx.Call(callWaitStart, uint64(a.txn))
	}
	if c.cfg.Mode == InitiateOnWaitDelay {
		c.armDetectionStep(a)
	}
}

// armDetectionStep gives the agent's wait a number no other wait of
// this controller has and arms the §4.3 timer for that wait and no
// other — "initiate only if the edge has existed continuously for T".
// Whatever ends the wait (waitEndStep, agent teardown) clears the
// number, so a timer whose wait ended inside T, or that fires into a
// younger wait of the same agent, finds a different number and does not
// initiate: the younger wait has its own timer. On a Host the timer is
// an entry on the shard's wheel; elsewhere it goes through
// Config.Timers.
func (c *Controller) armDetectionStep(a *agentState) {
	c.waits++
	a.wait = c.waits
	if c.wheel != nil {
		c.wheel.Arm(c.cfg.Delay, uint64(a.txn), a.wait)
		return
	}
	txn, wait := a.txn, a.wait
	c.cfg.Timers.After(c.cfg.Delay, func() {
		cmd := c.newCommand(opDetect, txn)
		cmd.wait = wait
		c.post(cmd)
	})
}

// StepTimer implements engine.TimerLogic: the wheel entry armed for
// wait number wait of txn's agent fell due.
func (c *Controller) StepTimer(txn, wait uint64) {
	c.fx.Run(func() { c.detectStep(id.Txn(txn), wait) })
}

// detectStep initiates a computation for txn's agent if its current
// wait is the one numbered wait, which has then lasted T.
func (c *Controller) detectStep(txn id.Txn, wait uint64) {
	if a, ok := c.agents[txn]; ok && a.wait == wait {
		c.checkAgentStep(txn)
	}
}

// waitEndStep closes the agent's current wait and emits the wait-end
// event.
func (c *Controller) waitEndStep(a *agentState) {
	if a == nil {
		return
	}
	a.wait = 0
	if c.cfg.OnWaitEnd != nil {
		c.fx.Call(callWaitEnd, uint64(a.txn))
	}
}

// send hands a frame to another controller; transports never call back
// synchronously, so no step cycle is possible. Every frame is a pooled
// pointer from msg.NewCtrl*, and the transport owns it from here on: the
// caller must not read it after send (msg/pool.go).
func (c *Controller) send(to id.Site, m msg.Message) {
	c.cfg.Transport.Send(transport.NodeID(c.cfg.Site), transport.NodeID(to), m)
}

// HandleMessage implements transport.Handler for stand-alone
// transports: it serializes through the Runner and runs one step.
// Hosted controllers skip this path — the shard loop calls Step
// directly, already serialized.
func (c *Controller) HandleMessage(from transport.NodeID, m msg.Message) {
	c.fx.Exec(c.run, func() { c.step(id.Site(from), m) })
}

// Step implements engine.Logic: one atomic protocol step, invoked by
// the runtime already serialized (the Host shard's loop goroutine).
func (c *Controller) Step(from transport.NodeID, m msg.Message) {
	c.fx.Run(func() { c.step(id.Site(from), m) })
}

// step applies one delivered frame.
func (c *Controller) step(sender id.Site, m msg.Message) {
	if sender == c.cfg.Site {
		// Controllers never message themselves: local work stays local.
		c.rejectStep(sender, engine.KindOf(m), ReasonSelfAddressed,
			fmt.Sprintf("frame of type %T claims this controller as its sender", m))
		return
	}
	// The pooled pointer forms (a zero-allocation transport decode) are
	// dereferenced at the call so the handlers see the same value types
	// as ever; every field is copied out within the step, so the frame
	// may be recycled the moment the step returns. Typed nils reject
	// like any alien frame rather than dereferencing.
	if msg.IsNilPtr(m) {
		c.rejectStep(sender, engine.KindOf(m), ReasonUnknownType,
			fmt.Sprintf("nil %T frame", m))
		return
	}
	switch mm := m.(type) {
	case msg.CtrlAcquire:
		c.handleAcquireStep(sender, mm)
	case *msg.CtrlAcquire:
		c.handleAcquireStep(sender, *mm)
	case msg.CtrlGranted:
		c.handleGrantedStep(sender, mm)
	case *msg.CtrlGranted:
		c.handleGrantedStep(sender, *mm)
	case msg.CtrlRelease:
		c.handleReleaseStep(sender, mm)
	case *msg.CtrlRelease:
		c.handleReleaseStep(sender, *mm)
	case msg.CtrlProbe:
		c.handleProbeStep(sender, mm)
	case *msg.CtrlProbe:
		c.handleProbeStep(sender, *mm)
	case msg.CtrlAbort:
		c.handleAbortStep(mm)
	case *msg.CtrlAbort:
		c.handleAbortStep(*mm)
	default:
		c.rejectStep(sender, engine.KindOf(m), ReasonUnknownType,
			fmt.Sprintf("message of type %T is not part of the DDB protocol", m))
	}
}

// handleAbortStep processes an abort verdict for one of this site's
// transactions. It takes the frame by value: a forward sends a fresh
// pooled copy, never the frame that was delivered.
func (c *Controller) handleAbortStep(m msg.CtrlAbort) {
	if ts, ok := c.txns[m.Txn]; ok {
		if ts.status == TxnRunning {
			c.abortStep(ts)
		}
	} else if a, ok := c.agents[m.Txn]; ok && a.home != c.cfg.Site {
		// A declaring controller may only know the site a victim's
		// agent lives on, not its home; one forward resolves it
		// (a.home is authoritative, so this cannot loop).
		c.send(a.home, msg.NewCtrlAbort(m))
	}
}

// handleAcquireStep processes a remote acquisition: the grey
// inter-controller edge turns black on receipt (G4 of the DDB axioms).
func (c *Controller) handleAcquireStep(from id.Site, m msg.CtrlAcquire) {
	// Validate the frame against local state before touching anything, so
	// a rejected frame leaves the controller exactly as it was.
	a, ok := c.agents[m.Txn]
	if ok && (a.home != from || a.inc != m.Inc) {
		// A fresh incarnation after abort: the old one's release arrives
		// first on the FIFO link, so by the time the new acquire shows up
		// the old agent holds nothing and waits for nothing and can be
		// replaced outright. Anything else — including an acquire naming
		// a transaction homed at this very site — is a duplicated or
		// forged frame.
		if len(a.held) != 0 || a.hasWaiting || a.home == c.cfg.Site {
			c.rejectStep(from, m.Kind(), ReasonIncarnationClash,
				fmt.Sprintf("acquire of %v for %v inc %d clashes with live agent (home %v, inc %d)",
					m.Resource, m.Txn, m.Inc, a.home, a.inc))
			return
		}
	}
	if ok && a.hasWaiting {
		// §6.2 transactions request one resource at a time; the home
		// controller never sends a second acquire while one is pending.
		c.rejectStep(from, m.Kind(), ReasonDuplicateAcquire,
			fmt.Sprintf("acquire of %v for %v while its agent still waits for %v",
				m.Resource, m.Txn, a.waiting))
		return
	}
	granted, err := c.locks.acquire(m.Resource, m.Txn, m.Mode)
	if err != nil {
		// Re-entrant acquire of a held resource, or a double queue entry.
		c.rejectStep(from, m.Kind(), ReasonDuplicateAcquire,
			fmt.Sprintf("acquire of %v for %v: %v", m.Resource, m.Txn, err))
		return
	}
	if !ok {
		a = c.newAgentStep(m.Txn, from, m.Inc)
	} else {
		a.home, a.inc = from, m.Inc
	}
	if granted {
		a.held.put(m.Resource, m.Mode)
		c.send(from, msg.NewCtrlGranted(msg.CtrlGranted{Txn: m.Txn, Resource: m.Resource, Inc: m.Inc}))
		return
	}
	a.pendingAck = m.Resource
	a.hasPendingAck = true
	a.waiting = m.Resource
	a.waitingMode = m.Mode
	a.hasWaiting = true
	c.waitStartStep(a)
}

// handleGrantedStep completes a remote acquisition at the home site:
// the white inter-controller edge disappears on receipt (G6).
func (c *Controller) handleGrantedStep(from id.Site, m msg.CtrlGranted) {
	ts, ok := c.txns[m.Txn]
	if !ok || ts.inc != m.Inc || ts.status != TxnRunning {
		// Stale grant for an aborted incarnation: hand the resource
		// straight back.
		c.send(from, msg.NewCtrlRelease(msg.CtrlRelease{Txn: m.Txn, Resource: m.Resource, Inc: m.Inc}))
		return
	}
	site, pending := ts.pendingRemote.get(m.Resource)
	if !pending || site != from {
		c.send(from, msg.NewCtrlRelease(msg.CtrlRelease{Txn: m.Txn, Resource: m.Resource, Inc: m.Inc}))
		return
	}
	ts.pendingRemote.del(m.Resource)
	ts.heldRemote.put(m.Resource, from)
	c.waitEndStep(c.agents[m.Txn])
	c.scheduleNextStepStep(ts)
}

// handleReleaseStep processes a release (commit, abort, or stale
// grant) for a remote agent.
func (c *Controller) handleReleaseStep(from id.Site, m msg.CtrlRelease) {
	a, ok := c.agents[m.Txn]
	if !ok || a.inc != m.Inc || a.home != from {
		return // already cleaned up
	}
	if a.hasWaiting && a.waiting == m.Resource {
		c.cancelLocalWaitStep(a)
	} else if a.held.del(m.Resource) {
		c.releaseLocalStep(m.Resource, m.Txn)
	}
	if len(a.held) == 0 && !a.hasWaiting {
		c.dropAgentStep(a)
	}
}

// AgentBlocked reports whether the given transaction's agent at this
// site is currently waiting (locally queued or awaiting a remote
// acquisition). The timeout baseline polls this.
func (c *Controller) AgentBlocked(txn id.Txn) bool {
	var out bool
	c.run.Exec(func() { out = c.agentBlockedStep(txn) })
	return out
}

// HomeOf returns the home site of a transaction with an agent here.
func (c *Controller) HomeOf(txn id.Txn) (id.Site, bool) {
	var (
		home id.Site
		ok   bool
	)
	c.run.Exec(func() {
		if a, present := c.agents[txn]; present {
			home, ok = a.home, true
		}
	})
	return home, ok
}

// Abort requests the abort of a transaction: locally if this is its
// home site, otherwise by message to its home controller. On a Host it
// is posted to the controller's shard, like Submit.
func (c *Controller) Abort(txn id.Txn) {
	c.post(c.newCommand(opAbort, txn))
}

// abortAnyStep is Abort's step.
func (c *Controller) abortAnyStep(txn id.Txn) {
	if ts, home := c.txns[txn]; home {
		if ts.status == TxnRunning {
			c.abortStep(ts)
		}
	} else if a, ok := c.agents[txn]; ok {
		c.send(a.home, msg.NewCtrlAbort(msg.CtrlAbort{Txn: txn}))
	}
}

// Stats reports this controller's counters.
func (c *Controller) Stats() ControllerStats {
	var st ControllerStats
	c.run.Exec(func() {
		st = ControllerStats{
			Computations:   c.computations,
			ProbesSent:     c.probesSent,
			ProbesDropped:  c.probesDropped,
			DeclaredLocal:  c.declaredLocal,
			DeclaredRemote: c.declaredRemote,
			Commits:        c.commits,
			Aborts:         c.aborts,
			ProtocolErrors: c.ingress.Errors(),
			AgentsPurged:   c.agentsPurged,
			PeerAborts:     c.peerAborts,
		}
	})
	return st
}

// ControllerStats holds per-controller counters.
type ControllerStats struct {
	Computations   uint64
	ProbesSent     uint64
	ProbesDropped  uint64
	DeclaredLocal  uint64
	DeclaredRemote uint64
	Commits        uint64
	Aborts         uint64
	// ProtocolErrors counts ingress frames rejected by the validated
	// ingress layer (see ingress.go).
	ProtocolErrors uint64
	// AgentsPurged counts remote agents released because their home site
	// crashed; PeerAborts counts home transactions aborted because a
	// pending remote acquisition's site crashed (see failure.go).
	AgentsPurged uint64
	PeerAborts   uint64
}

var (
	_ transport.Handler    = (*Controller)(nil)
	_ engine.Logic         = (*Controller)(nil)
	_ engine.RecoveryLogic = (*Controller)(nil)
	_ engine.TimerLogic    = (*Controller)(nil)
)
