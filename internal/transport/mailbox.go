package transport

import (
	"sync"

	"repro/internal/msg"
)

// delivery is one queued message awaiting dispatch. seq and epoch are
// the sender-assigned frame sequencing of the TCP transport; they let
// sequence-aware observers audit the reconnect protocol. to is the
// destination node: a TCP host mailbox demultiplexes deliveries by it.
type delivery struct {
	from  NodeID
	to    NodeID
	m     msg.Message
	seq   uint64
	epoch uint64
}

// mailboxConfig tunes a mailbox's optional backpressure signal. The
// zero value disables it.
type mailboxConfig struct {
	// highWater is the queue depth at which the mailbox reports
	// backpressure engaged. It reports release once the dispatcher has
	// drained the queue back to highWater/2 (hysteresis, so a queue
	// oscillating around the mark does not flap the signal). 0 disables
	// the signal entirely.
	highWater int
	// onPressure receives the engage/release transitions with the depth
	// observed at the transition. It is invoked outside the mailbox
	// lock, so it may inspect the mailbox or the owning transport.
	onPressure func(engaged bool, depth int)
}

// minMailboxCap is the smallest ring allocation; the ring never shrinks
// below it, so steady low-traffic mailboxes do not churn allocations.
const minMailboxCap = 16

// shrinkAfterPops is the shrink hysteresis: the ring halves only after
// this many *consecutive* pops each observing the queue at or below a
// quarter of capacity, with the streak reset by every push and every
// resize. Without it, a workload oscillating around a power-of-two
// boundary (push to cap, drain past cap/4, repeat) pays a full-ring
// copy on nearly every cycle; with it, shrinking only happens once the
// queue has demonstrably settled at the smaller size.
const shrinkAfterPops = 32

// mailbox is an unbounded FIFO queue with a single dispatcher goroutine
// that hands its deliveries to deliver one at a time. A single
// dispatcher gives each node the paper's atomic-step property; the
// unbounded queue means Send never blocks, so a blocked application
// process can never wedge the network (which would violate the
// finite-delivery axiom P4). Because it cannot refuse input, the
// mailbox instead *signals*: an optional high-watermark callback tells
// the owner when a node stops keeping up with its ingress rate.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// buf is a ring: n queued deliveries starting at head. Pops zero the
	// vacated slot so delivered messages are released to the collector
	// promptly, and the ring shrinks once it is three-quarters empty —
	// unlike the previous queue = queue[1:] slice queue, whose backing
	// array kept every delivered message reachable until the next
	// append-triggered reallocation copied the survivors away.
	buf  []delivery
	head int
	n    int
	// shrinkStreak counts consecutive below-threshold pops toward the
	// shrink hysteresis; resizes counts ring reallocations (test hook
	// for the thrash bound).
	shrinkStreak int
	resizes      int
	// peak is the maximum depth ever observed (surfaced via TCPStats).
	peak      int
	pressured bool
	closed    bool
	done      chan struct{}
	deliver   func(d delivery)
	cfg       mailboxConfig
}

// newMailbox starts the dispatcher goroutine, which calls deliver for
// each queued delivery in order.
func newMailbox(deliver func(d delivery), cfg mailboxConfig) *mailbox {
	mb := &mailbox{
		done:    make(chan struct{}),
		deliver: deliver,
		cfg:     cfg,
	}
	mb.cond = sync.NewCond(&mb.mu)
	go mb.loop()
	return mb
}

// pushLocked appends one delivery to the ring, growing it as needed.
func (mb *mailbox) pushLocked(d delivery) {
	if mb.n == len(mb.buf) {
		grown := 2 * len(mb.buf)
		if grown < minMailboxCap {
			grown = minMailboxCap
		}
		mb.resizeLocked(grown)
	}
	mb.buf[(mb.head+mb.n)%len(mb.buf)] = d
	mb.n++
	mb.shrinkStreak = 0
	if mb.n > mb.peak {
		mb.peak = mb.n
	}
}

// popLocked removes and returns the head delivery, zeroing its slot.
// The ring shrinks by half only after shrinkAfterPops consecutive pops
// saw it three-quarters empty (see the constant for why).
func (mb *mailbox) popLocked() delivery {
	d := mb.buf[mb.head]
	mb.buf[mb.head] = delivery{}
	mb.head = (mb.head + 1) % len(mb.buf)
	mb.n--
	if half := len(mb.buf) / 2; half >= minMailboxCap && mb.n <= len(mb.buf)/4 {
		if mb.shrinkStreak++; mb.shrinkStreak >= shrinkAfterPops {
			mb.resizeLocked(half)
		}
	} else {
		mb.shrinkStreak = 0
	}
	return d
}

// resizeLocked reallocates the ring at the given capacity (>= n),
// compacting the live deliveries to the front.
func (mb *mailbox) resizeLocked(capacity int) {
	buf := make([]delivery, capacity)
	for i := 0; i < mb.n; i++ {
		buf[i] = mb.buf[(mb.head+i)%len(mb.buf)]
	}
	mb.buf = buf
	mb.head = 0
	mb.resizes++
	mb.shrinkStreak = 0
}

// put enqueues one delivery. It is safe for concurrent use; enqueue
// order from a single sender is preserved, which is all the FIFO
// per-ordered-pair contract requires.
func (mb *mailbox) put(d delivery) {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return
	}
	mb.pushLocked(d)
	depth := mb.n
	var notify func(bool, int)
	if hw := mb.cfg.highWater; hw > 0 && !mb.pressured && depth >= hw {
		mb.pressured = true
		notify = mb.cfg.onPressure
	}
	mb.cond.Signal()
	mb.mu.Unlock()
	if notify != nil {
		notify(true, depth)
	}
}

// loop dispatches queued deliveries until close.
func (mb *mailbox) loop() {
	defer close(mb.done)
	for {
		mb.mu.Lock()
		for mb.n == 0 && !mb.closed {
			mb.cond.Wait()
		}
		if mb.closed && mb.n == 0 {
			mb.mu.Unlock()
			return
		}
		d := mb.popLocked()
		depth := mb.n
		var notify func(bool, int)
		if mb.pressured && depth <= mb.cfg.highWater/2 {
			mb.pressured = false
			notify = mb.cfg.onPressure
		}
		mb.mu.Unlock()

		if notify != nil {
			notify(false, depth)
		}
		mb.deliver(d)
	}
}

// depth returns the number of queued deliveries.
func (mb *mailbox) depth() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.n
}

// capacity returns the current ring allocation (test hook for the
// shrink behaviour).
func (mb *mailbox) capacity() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.buf)
}

// resizeCount returns how many times the ring has been reallocated
// (test hook for the resize-thrash hysteresis).
func (mb *mailbox) resizeCount() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.resizes
}

// peakDepth returns the maximum depth the mailbox ever reached.
func (mb *mailbox) peakDepth() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.peak
}

// close drains the queue and stops the dispatcher, waiting for it to
// exit.
func (mb *mailbox) close() {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		<-mb.done
		return
	}
	mb.closed = true
	mb.cond.Signal()
	mb.mu.Unlock()
	<-mb.done
}
