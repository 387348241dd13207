package ddb

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestDetectionTimerIgnoresEndedWait is the §4.3 stale-timer regression
// for the DDB model, mirroring core's TestDelayTimerIgnoresReplacedEdge:
// a wait granted and followed by another wait of the same agent inside
// the window T must not inherit the first wait's timer — the second has
// not existed continuously for T — while a wait that persists is still
// checked at its own T. The sim leg runs the timers through
// Config.Timers, the host leg on the shard's wheel.
func TestDetectionTimerIgnoresEndedWait(t *testing.T) {
	w := msg.LockWrite
	// T1 holds r0, T2 holds r1 (both for longer than the test); T3 wants
	// r0 then r1.
	scripts := []struct {
		txn   id.Txn
		steps []LockStep
	}{
		{1, []LockStep{{0, w}}},
		{2, []LockStep{{1, w}}},
		{3, []LockStep{{0, w}, {1, w}}}, // first wait, timer due at T
	}
	submitAll := func(t *testing.T, c *Controller) {
		for _, s := range scripts {
			if err := c.Submit(s.txn, 0, s.steps); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := func(tr transport.Transport, timers engine.Timers, delay, hold int64) Config {
		return Config{
			Site:         0,
			Transport:    tr,
			Timers:       timers,
			ResourceHome: func(id.Resource) id.Site { return 0 },
			Mode:         InitiateOnWaitDelay,
			Delay:        delay,
			HoldTime:     hold,
		}
	}

	t.Run("sim", func(t *testing.T) {
		const delay = 5 * sim.Millisecond
		sched := sim.New(1)
		net := transport.NewSimNet(sched, transport.FixedLatency(sim.Millisecond))
		c, err := NewController(cfg(net, simTimers{sched: sched}, int64(delay), int64(sim.Second)))
		if err != nil {
			t.Fatal(err)
		}
		submitAll(t, c) // t=0
		// t=2ms: r0 is released; T3 takes it and at once waits for r1 — a
		// second wait, whose own timer arms for t=7ms.
		sched.RunUntil(sim.Time(2 * sim.Millisecond))
		c.AbortLocal(1)
		sched.RunUntil(sim.Time(2 * sim.Millisecond))
		if !c.AgentBlocked(3) {
			t.Fatal("test premise broken: T3 is not waiting for r1")
		}

		// t=6ms: the FIRST timer was due at t=5ms with T3 blocked — but in a
		// younger wait, so nothing may start.
		sched.RunUntil(sim.Time(6 * sim.Millisecond))
		if got := c.Stats().Computations; got != 0 {
			t.Fatalf("stale timer initiated: Computations = %d at t=6ms, want 0", got)
		}
		// t=8ms: the second wait has lasted T; its own timer (t=7ms) checks it.
		sched.RunUntil(sim.Time(8 * sim.Millisecond))
		if got := c.Stats().Computations; got != 1 {
			t.Fatalf("Computations = %d at t=8ms, want 1 (the persisting wait's own timer)", got)
		}
	})

	t.Run("host", func(t *testing.T) {
		const delay = 250 * time.Millisecond
		host := engine.NewHost(engine.Options{Shards: 1})
		defer host.Close()
		c, err := NewController(cfg(host, realTimers{}, int64(delay), int64(time.Minute)))
		if err != nil {
			t.Fatal(err)
		}
		submitAll(t, c)
		time.Sleep(delay / 5)
		second := time.Now() // the second wait opens no earlier than this
		if got := c.Stats().Computations; got != 0 {
			t.Fatalf("test premise broken: %d computations before T", got)
		}
		c.AbortLocal(1)
		if !c.AgentBlocked(3) {
			t.Fatal("test premise broken: T3 is not waiting for r1")
		}
		// The first timer falls due about T/5 before the second may: in
		// that window it finds a younger wait and must not initiate.
		for time.Since(second) < delay {
			if got := c.Stats().Computations; got != 0 {
				t.Fatalf("stale timer initiated: Computations = %d %v after the second wait opened, T = %v",
					got, time.Since(second), delay)
			}
			time.Sleep(time.Millisecond)
		}
		for deadline := time.Now().Add(5 * time.Second); c.Stats().Computations == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the persisting wait's own timer never initiated")
			}
		}
		if got := c.Stats().Computations; got != 1 {
			t.Fatalf("Computations = %d, want 1 (the persisting wait's own timer)", got)
		}
	})
}

// countingTimers counts the timers a controller arms and fires none.
type countingTimers struct{ armed int }

func (ct *countingTimers) After(int64, func()) { ct.armed++ }

// TestZeroDelayScriptIsOneStep: with StepDelay = HoldTime = 0 a script
// of uncontended local locks runs to its commit inside Submit's own
// step — one shard event, no timer, the commit callback back by the
// time the shard next parks.
func TestZeroDelayScriptIsOneStep(t *testing.T) {
	host := engine.NewHost(engine.Options{Shards: 1})
	defer host.Close()
	timers := &countingTimers{}
	committed := false
	c, err := NewController(Config{
		Site:         0,
		Transport:    host,
		Timers:       timers,
		ResourceHome: func(id.Resource) id.Site { return 0 },
		OnCommit:     func(id.Txn) { committed = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	host.Drain()
	before := host.Stats().Events
	steps := []LockStep{{0, msg.LockRead}, {1, msg.LockWrite}, {2, msg.LockRead}}
	if err := c.Submit(1, 0, steps); err != nil {
		t.Fatal(err)
	}
	host.Drain()
	if !committed {
		t.Fatal("transaction had not committed when the shard parked")
	}
	if got := host.Stats().Events - before; got != 1 {
		t.Fatalf("Submit cost %d shard events, want 1", got)
	}
	if timers.armed != 0 {
		t.Fatalf("%d timers armed, want none", timers.armed)
	}
}

// TestContinuationRunsAfterGrantCascade: two readers queued behind a
// writer are granted by one cascade when the writer aborts. Their
// continuations (script done, HoldTime 0: commit, which releases and
// cascades again) must run after that cascade has granted both, not
// from inside it between the first grant and the second.
func TestContinuationRunsAfterGrantCascade(t *testing.T) {
	sched := sim.New(1)
	net := transport.NewSimNet(sched, transport.FixedLatency(sim.Millisecond))
	var events []string
	cfg := Config{
		Transport:    net,
		Timers:       simTimers{sched: sched},
		ResourceHome: func(r id.Resource) id.Site { return id.Site(int(r) % 2) },
		OnWaitEnd:    func(a id.Agent) { events = append(events, fmt.Sprintf("granted %v", a.Txn)) },
		OnCommit:     func(txn id.Txn) { events = append(events, fmt.Sprintf("commit %v", txn)) },
	}
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Site = 1
	if _, err := NewController(cfg); err != nil {
		t.Fatal(err)
	}
	// T1 write-locks r0 and then asks site 1 for r1; the scheduler never
	// runs, so that acquisition stays in flight and T1 keeps r0.
	if err := c.Submit(1, 0, []LockStep{{0, msg.LockWrite}, {1, msg.LockWrite}}); err != nil {
		t.Fatal(err)
	}
	for _, txn := range []id.Txn{2, 3} {
		if err := c.Submit(txn, 0, []LockStep{{0, msg.LockRead}}); err != nil {
			t.Fatal(err)
		}
	}
	c.AbortLocal(1)
	want := []string{"granted T2", "granted T3", "commit T2", "commit T3"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
}

// localTxnRig is the ddb rung of the cost ladder: one hosted controller
// and a three-lock all-local script with no pacing delays. The returned
// function runs transaction i from Submit to its commit callback
// (awaitCommits), so a stalled shard fails the test instead of hanging
// it.
func localTxnRig(tb testing.TB) (*Controller, func(i int)) {
	host := engine.NewHost(engine.Options{Shards: 1})
	tb.Cleanup(host.Close)
	done := make(chan id.Txn, 1)
	c, err := NewController(Config{
		Site:         0,
		Transport:    host,
		Timers:       &countingTimers{},
		ResourceHome: func(id.Resource) id.Site { return 0 },
		OnCommit:     func(txn id.Txn) { done <- txn },
	})
	if err != nil {
		tb.Fatal(err)
	}
	steps := make([][]LockStep, 1000)
	for i := range steps {
		k := id.Resource(3 * i)
		steps[i] = []LockStep{{k, msg.LockRead}, {k + 1, msg.LockWrite}, {k + 2, msg.LockRead}}
	}
	return c, awaitCommits(tb, done, func(i int) error {
		return c.Submit(id.Txn(i+1), 0, steps[i%len(steps)])
	})
}

// remoteTxnRig is the cluster-uniform shape without the wire: two
// controllers on one Host, every transaction homed at site 0 and taking
// three locks at site 1 — an acquire, a grant and a release frame each.
// The returned function runs transaction i from Submit to its commit
// (awaitCommits). With waits non-nil the controllers also set OnDeadlock, OnWaitStart
// and OnWaitEnd, as the benchmark's do, and the wait callbacks count
// into waits: each remote lock is a wait at the home site.
func remoteTxnRig(tb testing.TB, waits *waitCount) func(i int) {
	done := make(chan id.Txn, 1)
	_, ctrls := hostedPair(tb, func(txn id.Txn) { done <- txn })
	if waits != nil {
		// Set before the first Submit, whose post orders them before
		// every step that reads them.
		for _, c := range ctrls {
			c.cfg.OnDeadlock = func(id.Agent, id.CtrlTag) { tb.Error("deadlock declared in a rig without one") }
			c.cfg.OnWaitStart = func(id.Agent) { waits.starts.Add(1) }
			c.cfg.OnWaitEnd = func(id.Agent) { waits.ends.Add(1) }
		}
	}
	steps := make([][]LockStep, 1000)
	for i := range steps {
		k := id.Resource(6*i + 1) // odd: managed by site 1
		steps[i] = []LockStep{{k, msg.LockRead}, {k + 2, msg.LockWrite}, {k + 4, msg.LockRead}}
	}
	return awaitCommits(tb, done, func(i int) error {
		return ctrls[0].Submit(id.Txn(i+1), 0, steps[i%len(steps)])
	})
}

// awaitCommits returns a rig's transaction runner: submit transaction
// i, then wait for its commit on done, failing the test if it does not
// come within txnDeadline. One timer serves the rig, reset for each
// transaction, so the wait allocates nothing.
func awaitCommits(tb testing.TB, done <-chan id.Txn, submit func(i int) error) func(i int) {
	deadline := time.NewTimer(txnDeadline)
	deadline.Stop()
	return func(i int) {
		if err := submit(i); err != nil {
			tb.Fatal(err)
		}
		deadline.Reset(txnDeadline)
		select {
		case got := <-done:
			deadline.Stop()
			if got != id.Txn(i+1) {
				tb.Fatalf("%v committed while waiting for transaction %d", got, i+1)
			}
		case <-deadline.C:
			tb.Fatalf("transaction %d did not commit within %v", i+1, txnDeadline)
		}
	}
}

// txnDeadline bounds one rig transaction, which commits in microseconds:
// a lost frame fails the test instead of hanging it.
const txnDeadline = 10 * time.Second

// waitCount counts wait callbacks, which run on two shard goroutines.
type waitCount struct{ starts, ends atomic.Int64 }

func BenchmarkControllerLocalTxn(b *testing.B) {
	_, runTxn := localTxnRig(b)
	benchTxns(b, runTxn)
}

func BenchmarkControllerRemoteTxn(b *testing.B) { benchTxns(b, remoteTxnRig(b, nil)) }

func benchTxns(b *testing.B, runTxn func(i int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTxn(i)
	}
}

// TestTxnAllocGates holds the allocations of a whole transaction to
// what they were measured at once finished transactions were recycled
// (27 for the local one before that), detection timers moved onto the
// shard wheel (22 for the remote one before that: a token and a closure
// per remote wait), deferred callbacks went onto the controller's reused
// effect buffer (16 for the remote one before that: a fresh callback
// list per step), Submit was posted to the shard instead of waiting for
// it (7 and 15 before that: a done channel and a copy of the step's
// callbacks), and then frames were pooled on send, callbacks deferred as
// data and commands posted as data (4 and 13 before that: the posted
// Submit's closure pair and captured error, the OnCommit closure, and
// the frames boxed into msg.Message). The callbacks rig sets every
// callback the benchmark does; it read 19 before that, the wait
// callbacks costing a closure per remote wait. All three read 0; the bound of 1 leaves room for
// a pool the GC emptied. Under the race detector, which drops a quarter
// of sync.Pool's Puts, each pooled value a transaction takes (its posted
// Submit, and the nine frames of a remote one) adds a quarter to the
// bound; make gates runs without it.
func TestTxnAllocGates(t *testing.T) {
	var waits waitCount
	for _, g := range []struct {
		name   string
		rig    func(t *testing.T) func(int)
		pooled int
	}{
		{"local", func(t *testing.T) func(int) { _, run := localTxnRig(t); return run }, 1},
		{"remote", func(t *testing.T) func(int) { return remoteTxnRig(t, nil) }, 10},
		{"callbacks", func(t *testing.T) func(int) { return remoteTxnRig(t, &waits) }, 10},
	} {
		max := 1.0
		if raceBuild {
			max += float64(g.pooled) / 4
		}
		t.Run(g.name, func(t *testing.T) {
			runTxn := g.rig(t) // built on the subtest, so a transaction that hangs fails it
			i := 0
			for ; i < 2000; i++ { // fill the free lists and the shard queues
				runTxn(i)
			}
			got := testing.AllocsPerRun(2000, func() { runTxn(i); i++ })
			t.Logf("%v allocs per %s transaction", got, g.name)
			if got > max {
				t.Fatalf("%v allocs per %s transaction, want at most %v", got, g.name, max)
			}
		})
	}
	// 2000 + 2001 transactions (AllocsPerRun adds a warm-up run) of
	// three remote waits each, every one started and ended.
	if starts, ends, want := waits.starts.Load(), waits.ends.Load(), int64(3*4001); starts != want || ends != want {
		t.Fatalf("callbacks rig: %d wait starts and %d wait ends, want %d of each", starts, ends, want)
	}
}
