package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ddb"
	"repro/internal/id"
)

// slot is one closed-loop client: it has at most one transaction in
// flight and gets its next one only when that one commits. The slot
// index is folded into the transaction id (txn % slots), so callbacks
// find their slot without a shared map.
type slot struct {
	txn   id.Txn
	home  id.Site
	steps []ddb.LockStep
	inc   uint32
	start time.Time // first submission; retries do not reset it
	latNs int64     // submit → commit callback, retries included
}

// driver is the single-goroutine closed-loop load generator. Controller
// callbacks (on shard and timer goroutines) hand a committed slot back
// over done; everything else they touch is per-slot, per-site or atomic.
type driver struct {
	st    *stack
	gen   *generator
	tr    *tracer
	slots []slot
	done  chan int // committed slot indices; buffered to len(slots), so callbacks never block
	seq   int32
	t0    time.Time

	resubmits atomic.Int64
	submitErr atomic.Int64

	// rssAt/rssMB: peak RSS sampled when the rssAt-th commit lands.
	rssAt     int64
	rssMB     float64
	committed int64 // driver goroutine only

	waits [numSites]waitTable

	detMu    sync.Mutex
	detectNs []int64    // wait-start → declaration
	declared []id.Agent // every declaration's target, for the oracle audit
}

// waitTable holds one site's open waits; its controller's callbacks run
// on one shard plus the odd timer goroutine, so the lock is uncontended.
type waitTable struct {
	mu    sync.Mutex
	start map[id.Agent]int64
}

func newDriver(seed int64, w workload, clients int, tr *tracer) *driver {
	d := &driver{
		gen:   newGenerator(seed, w.mix),
		tr:    tr,
		slots: make([]slot, clients),
		done:  make(chan int, clients),
		t0:    time.Now(),
		rssAt: w.rssAt,
	}
	for i := range d.waits {
		d.waits[i].start = make(map[id.Agent]int64)
	}
	return d
}

func (d *driver) hooks() hooks {
	return hooks{
		onCommit:    d.onCommit,
		onAbort:     d.onAbort,
		onDeadlock:  d.onDeadlock,
		onWaitStart: d.onWaitStart,
		onWaitEnd:   d.onWaitEnd,
	}
}

func (d *driver) slotOf(txn id.Txn) (int, *slot) {
	i := int(txn) % len(d.slots)
	return i, &d.slots[i]
}

func (d *driver) onCommit(txn id.Txn) {
	i, s := d.slotOf(txn)
	now := time.Now()
	s.latNs = now.Sub(s.start).Nanoseconds()
	if d.tr != nil {
		d.tr.root(txn, s.start, now)
	}
	d.done <- i
}

// onAbort resubmits a victim under a bumped incarnation after a linear
// backoff; the slot stays occupied until the transaction commits.
func (d *driver) onAbort(txn id.Txn) {
	_, s := d.slotOf(txn)
	s.inc++
	backoff := int64(retryBackoff)*int64(s.inc) + int64(jitter(txn, s.inc)%uint64(retryBackoff))
	d.st.timers.After(backoff, func() {
		d.resubmits.Add(1)
		d.send(s, false)
	})
}

// jitter is a splitmix64 hash of (txn, attempt): deterministic, and safe
// on any goroutine, unlike the seeded generator.
func jitter(txn id.Txn, attempt uint32) uint64 {
	x := uint64(uint32(txn))<<32 ^ uint64(attempt)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (d *driver) onWaitStart(a id.Agent) {
	t := time.Since(d.t0).Nanoseconds()
	w := &d.waits[a.Site]
	w.mu.Lock()
	w.start[a] = t
	w.mu.Unlock()
}

func (d *driver) onWaitEnd(a id.Agent) {
	w := &d.waits[a.Site]
	w.mu.Lock()
	delete(w.start, a)
	w.mu.Unlock()
}

func (d *driver) onDeadlock(target id.Agent, _ id.CtrlTag) {
	t := time.Since(d.t0).Nanoseconds()
	w := &d.waits[target.Site]
	w.mu.Lock()
	ws, ok := w.start[target]
	w.mu.Unlock()
	d.detMu.Lock()
	d.declared = append(d.declared, target)
	if ok {
		d.detectNs = append(d.detectNs, t-ws)
	}
	d.detMu.Unlock()
}

// submit starts slot i's next transaction.
func (d *driver) submit(i int, timeSubmit bool) int64 {
	s := &d.slots[i]
	d.seq++
	s.txn = id.Txn(int(d.seq)*len(d.slots) + i)
	s.inc = 0
	s.home, s.steps = d.gen.next()
	s.start = time.Now()
	return d.send(s, timeSubmit)
}

// send hands the slot's transaction to its home controller and returns
// how long the (shard-synchronous) Submit call took, when asked to time it.
func (d *driver) send(s *slot, timed bool) int64 {
	var t0 time.Time
	if timed || d.tr != nil {
		t0 = time.Now()
	}
	if err := d.st.ctrls[s.home].Submit(s.txn, s.inc, s.steps); err != nil {
		d.submitErr.Add(1)
	}
	if t0.IsZero() {
		return 0
	}
	t1 := time.Now()
	if d.tr != nil {
		d.tr.span("driver.submit", s.txn, t0, t1)
	}
	return t1.Sub(t0).Nanoseconds()
}

// phase describes one closed-loop phase.
type phase struct {
	clients int
	warm    time.Duration
	window  time.Duration
	windows int
	// maxTxns > 0 ends admission by count instead of by the clock.
	maxTxns int
	// idle ends the phase once nothing has committed for that long: the
	// settle budget of a measured phase, and the quiescence signal of the
	// audit leg, where deadlocks stand and clients get stuck.
	idle time.Duration
}

// phaseResult is what one phase measured.
type phaseResult struct {
	latNs     []int64 // commit latencies landing inside the measured span
	submitNs  []int64 // Controller.Submit durations over the same span
	snaps     []snap  // one per window edge
	submitted int64
	committed int64
	stuck     int64 // still in flight when the phase went idle
}

// runPhase drives one phase on the calling goroutine: fill the client
// slots, then on every commit token record the latency and submit that
// client's next transaction, until admission closes; then wait for the
// in-flight rest until they finish or stop making progress.
func (d *driver) runPhase(p phase) phaseResult {
	var r phaseResult
	byCount := p.maxTxns > 0
	start := time.Now()
	warmEnd := start.Add(p.warm)
	end := warmEnd.Add(time.Duration(p.windows) * p.window)
	admit := func(now time.Time) bool {
		if byCount {
			return r.submitted < int64(p.maxTxns)
		}
		return now.Before(end)
	}
	takeSnap := func(now time.Time) {
		r.snaps = append(r.snaps, snap{wallNs: now.Sub(start).Nanoseconds(), cpuNs: cpuNs(), commits: r.committed})
	}
	if byCount {
		takeSnap(start)
	}

	inflight := 0
	for i := 0; i < p.clients && admit(start); i++ {
		d.submit(i, false)
		r.submitted++
		inflight++
	}
	edge := warmEnd
	// One coarse ticker covers both a stalled system's window edges and
	// the idle check; with commits flowing, every token checks the edge.
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	lastProgress := start

	for inflight > 0 {
		var now time.Time
		select {
		case i := <-d.done:
			now = time.Now()
			lastProgress = now
			inflight--
			r.committed++
			d.committed++
			if d.rssMB == 0 && d.committed >= d.rssAt {
				d.rssMB = maxRSSMB()
			}
			measured := byCount || (!now.Before(warmEnd) && now.Before(end))
			if measured {
				r.latNs = append(r.latNs, d.slots[i].latNs)
			}
			if admit(now) {
				ns := d.submit(i, measured)
				if measured {
					r.submitNs = append(r.submitNs, ns)
				}
				r.submitted++
				inflight++
			}
		case <-tick.C:
			now = time.Now()
			if now.Sub(lastProgress) >= p.idle {
				r.stuck = int64(inflight)
				inflight = 0
			}
		}
		for !byCount && len(r.snaps) <= p.windows && !now.Before(edge) {
			takeSnap(now)
			edge = edge.Add(p.window)
		}
	}
	if byCount {
		takeSnap(time.Now())
	}
	return r
}
