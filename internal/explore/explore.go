// Package explore is a systematic schedule explorer — a stateless model
// checker for the protocol. The paper's theorems quantify over every
// execution permitted by the axioms; randomized simulation samples that
// space, while this package enumerates it exhaustively for small
// configurations: every interleaving of message deliveries that
// respects per-link FIFO order is executed, and the caller's invariant
// check runs after (and during) each complete schedule.
//
// The engine re-executes the scenario from scratch for every schedule,
// steering each run by a recorded choice path (which link delivers
// next). Processes are deterministic functions of their delivery
// sequence, so replaying a prefix reproduces the same reachable state
// without snapshotting. On top of the raw enumeration the engine
// applies partial-order reduction (sleep sets) and canonical state
// fingerprinting (see dpor.go) so equivalent interleavings are pruned
// instead of re-executed.
package explore

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"repro/internal/msg"
	"repro/internal/transport"
)

// DefaultTimerHorizon is the virtual-nanosecond threshold separating
// prompt timers (fire deterministically as part of the step that armed
// them) from dead timers (never fire). A scenario that wants a timeout
// to stay pending forever — a transaction's hold time, say, so that a
// deadlock is permanent — arms it beyond the horizon.
const DefaultTimerHorizon = int64(1) << 30

// Link is one ordered sender→receiver pair: the unit of FIFO order and
// therefore the unit of scheduling choice.
type Link struct {
	From, To transport.NodeID
}

// timerEntry is one armed prompt timer; entries fire in (delay, seq)
// order during the drain that follows each delivery.
type timerEntry struct {
	delay int64
	seq   uint64
	fn    func()
}

// ChoiceNet is a transport whose delivery order is chosen externally:
// sends queue per ordered pair (preserving FIFO within the pair), and
// Deliver hands the head of a chosen pair to its destination. It also
// implements engine.Timers, which every engine (core, commdl, ddb)
// takes: timers below the horizon fire synchronously, in (delay, arm)
// order, as part of the step that armed them — local computation is
// instantaneous in the paper's model, so a timer chain is part of one
// atomic step — while timers at or beyond the horizon never fire at
// all. ChoiceNet is intended for single-goroutine use by the explorer.
type ChoiceNet struct {
	handlers  map[transport.NodeID]transport.Handler
	queues    map[Link][]msg.Message
	links     []Link // stable insertion order of links ever used
	observers []transport.Observer
	delivered int

	horizon  int64
	timerSeq uint64
	timers   []timerEntry
}

// NewChoiceNet returns an empty choice-driven network with the default
// timer horizon.
func NewChoiceNet() *ChoiceNet {
	return &ChoiceNet{
		handlers: make(map[transport.NodeID]transport.Handler),
		queues:   make(map[Link][]msg.Message),
		horizon:  DefaultTimerHorizon,
	}
}

// SetTimerHorizon overrides the prompt/dead timer threshold. It must be
// called before any timer is armed.
func (n *ChoiceNet) SetTimerHorizon(h int64) {
	if h > 0 {
		n.horizon = h
	}
}

// Observe attaches an observer.
func (n *ChoiceNet) Observe(o transport.Observer) { n.observers = append(n.observers, o) }

// Register implements transport.Transport.
func (n *ChoiceNet) Register(id transport.NodeID, h transport.Handler) { n.handlers[id] = h }

// Send implements transport.Transport: the message queues on its link.
func (n *ChoiceNet) Send(from, to transport.NodeID, m msg.Message) {
	if m == nil {
		panic("choicenet: nil message")
	}
	for _, o := range n.observers {
		o.OnSend(from, to, m)
	}
	l := Link{From: from, To: to}
	if _, seen := n.queues[l]; !seen {
		n.links = append(n.links, l)
	}
	n.queues[l] = append(n.queues[l], m)
}

// After implements engine.Timers.
func (n *ChoiceNet) After(d int64, fn func()) {
	if d >= n.horizon {
		return // dead: beyond the horizon, never fires
	}
	n.timerSeq++
	n.timers = append(n.timers, timerEntry{delay: d, seq: n.timerSeq, fn: fn})
}

// drainTimers fires every pending prompt timer in (delay, seq) order,
// including timers armed by earlier firings, until none remain. The
// explorer calls it after scenario setup and after every delivery, so
// choice points never carry pending prompt timers.
func (n *ChoiceNet) drainTimers() error {
	const maxPops = 1 << 16
	for pops := 0; len(n.timers) > 0; pops++ {
		if pops >= maxPops {
			return fmt.Errorf("choicenet: timer chain exceeded %d firings (self-rearming timer?)", maxPops)
		}
		best := 0
		for i := 1; i < len(n.timers); i++ {
			t := n.timers[i]
			b := n.timers[best]
			if t.delay < b.delay || (t.delay == b.delay && t.seq < b.seq) {
				best = i
			}
		}
		fn := n.timers[best].fn
		n.timers = append(n.timers[:best], n.timers[best+1:]...)
		fn()
	}
	return nil
}

// Live returns the links that currently have queued messages, ordered
// by (from, to). Ordering by link identity — never by creation order —
// is what makes replays stable: a handler that sends to several links
// may do so in map-iteration order, so first-use order differs between
// otherwise identical runs, but the SET of live links (and each link's
// queue content) does not.
func (n *ChoiceNet) Live() []Link {
	var live []Link
	for _, l := range n.links {
		if len(n.queues[l]) > 0 {
			live = append(live, l)
		}
	}
	sort.Slice(live, func(a, b int) bool {
		if live[a].From != live[b].From {
			return live[a].From < live[b].From
		}
		return live[a].To < live[b].To
	})
	return live
}

// Deliver delivers the head message of the given link.
func (n *ChoiceNet) Deliver(l Link) {
	q := n.queues[l]
	if len(q) == 0 {
		panic(fmt.Sprintf("choicenet: deliver on empty link %v", l))
	}
	m := q[0]
	n.queues[l] = q[1:]
	h, ok := n.handlers[l.To]
	if !ok {
		panic(fmt.Sprintf("choicenet: no handler for node %d", l.To))
	}
	for _, o := range n.observers {
		o.OnDeliver(l.From, l.To, m)
	}
	n.delivered++
	h.HandleMessage(l.From, m)
}

// Delivered returns the number of messages delivered so far in this
// run.
func (n *ChoiceNet) Delivered() int { return n.delivered }

// Snapshot renders the in-flight state canonically: every non-empty
// queue in (from, to) order with its messages in FIFO order. Together
// with the engines' snapshots this determines all future behaviour, so
// it is part of the state fingerprint. Prompt timers are always drained
// at choice points and dead timers never fire, so the timer queue
// carries no information.
func (n *ChoiceNet) Snapshot() string {
	live := n.Live()
	var b strings.Builder
	for _, l := range live {
		fmt.Fprintf(&b, "%d>%d:[", l.From, l.To)
		for _, m := range n.queues[l] {
			m = msg.Deref(m) // a pooled frame renders as its value
			fmt.Fprintf(&b, "%T%+v;", m, m)
		}
		b.WriteString("]")
	}
	return b.String()
}

var _ transport.Transport = (*ChoiceNet)(nil)

// Snapshotter is anything that can render its algorithmic state as a
// canonical string; the engines' processes and controllers, and
// ChoiceNet itself, all implement it.
type Snapshotter interface {
	Snapshot() string
}

// FingerprintOf builds a state-fingerprint function over the given
// components. Include every engine in the scenario plus the ChoiceNet
// itself: the fingerprint must determine all future behaviour, or the
// state cache would merge states with different futures.
func FingerprintOf(parts ...Snapshotter) func() uint64 {
	return func() uint64 {
		h := fnv.New64a()
		for _, p := range parts {
			io.WriteString(h, p.Snapshot())
			h.Write([]byte{0})
		}
		return h.Sum64()
	}
}

// Instance is one constructed scenario: the quiescence check and an
// optional state fingerprint.
type Instance struct {
	// Check is invoked after the run quiesces (no queued messages).
	// Checks during the run belong in the scenario's own callbacks;
	// returning an error from either fails the exploration with the
	// offending schedule attached. Check must assert properties of the
	// final state (or of in-run audits), never of the scenario's full
	// event history: a pruned schedule's suffix is covered by the
	// representative schedule that reached the same state, but its
	// event order is not re-checked.
	Check func() error
	// Audit, if set, is polled at the end of every run — including
	// pruned runs, whose prefixes may never appear in any executed
	// schedule. Scenario callbacks should latch in-run property
	// violations (a declaration off the oracle's cycle, say) and
	// return the first one here.
	Audit func() error
	// Fingerprint hashes the global state (engines + in-flight
	// queues); nil disables state-cache pruning for this scenario.
	Fingerprint func() uint64
}

// Scenario builds a system on the given network (creating processes,
// issuing the initial requests) and returns the instance to explore.
type Scenario func(net *ChoiceNet) (Instance, error)
