package ddb

import (
	"fmt"
	"reflect"
	"testing"

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
// checked at its own T.
func TestDetectionTimerIgnoresEndedWait(t *testing.T) {
	const delay = 5 * sim.Millisecond
	sched := sim.New(1)
	net := transport.NewSimNet(sched, transport.FixedLatency(sim.Millisecond))
	c, err := NewController(Config{
		Site:         0,
		Transport:    net,
		Timers:       simTimers{sched: sched},
		ResourceHome: func(id.Resource) id.Site { return 0 },
		Mode:         InitiateOnWaitDelay,
		Delay:        int64(delay),
		HoldTime:     int64(sim.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	w := msg.LockWrite
	// T1 holds r0, T2 holds r1 (both for a second); T3 wants r0 then r1.
	for _, s := range []struct {
		txn   id.Txn
		steps []LockStep
	}{
		{1, []LockStep{{0, w}}},
		{2, []LockStep{{1, w}}},
		{3, []LockStep{{0, w}, {1, w}}}, // t=0: first wait, timer for t=5ms
	} {
		if err := c.Submit(s.txn, 0, s.steps); err != nil {
			t.Fatal(err)
		}
	}
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
}

// countingTimers counts the timers a controller arms and fires none.
type countingTimers struct{ armed int }

func (ct *countingTimers) After(int64, func()) { ct.armed++ }

// TestZeroDelayScriptIsOneStep: with StepDelay = HoldTime = 0 a script
// of uncontended local locks runs to its commit inside Submit's own
// step — one shard event, no timer, the commit callback back before
// Submit returns.
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
	if !committed {
		t.Fatal("transaction had not committed when Submit returned")
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

// BenchmarkControllerLocalTxn is the ddb rung of the cost ladder: one
// hosted controller, a three-lock all-local script with no pacing
// delays, submit to commit callback.
func BenchmarkControllerLocalTxn(b *testing.B) {
	host := engine.NewHost(engine.Options{Shards: 1})
	defer host.Close()
	commits := 0
	c, err := NewController(Config{
		Site:         0,
		Transport:    host,
		Timers:       &countingTimers{},
		ResourceHome: func(id.Resource) id.Site { return 0 },
		OnCommit:     func(id.Txn) { commits++ },
	})
	if err != nil {
		b.Fatal(err)
	}
	steps := make([][]LockStep, 1000)
	for i := range steps {
		k := id.Resource(3 * i)
		steps[i] = []LockStep{{k, msg.LockRead}, {k + 1, msg.LockWrite}, {k + 2, msg.LockRead}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Submit(id.Txn(i+1), 0, steps[i%len(steps)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if commits != b.N {
		b.Fatalf("%d of %d transactions committed inside Submit", commits, b.N)
	}
}
