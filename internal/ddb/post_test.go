package ddb

// On an engine.Host a controller's commands are posted to its shard and
// return at once; queries wait for the shard. These tests pin what a
// caller can still rely on.

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
)

// TestDuplicateSubmitOnHostIsAProtocolError: a Submit of a transaction
// that is already running returns nil on a Host, where the caller does
// not wait for the step; the shard rejects it as a protocol error and
// leaves the controller as it was.
func TestDuplicateSubmitOnHostIsAProtocolError(t *testing.T) {
	host := engine.NewHost(engine.Options{Shards: 1})
	defer host.Close()
	var rejected []ProtocolError // written on the shard, read after Drain
	c, err := NewController(Config{
		Site:            0,
		Transport:       host,
		Timers:          &countingTimers{},
		ResourceHome:    func(id.Resource) id.Site { return 0 },
		HoldTime:        1, // the timers never fire: T5 keeps running
		OnProtocolError: func(pe ProtocolError) { rejected = append(rejected, pe) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(5, 0, []LockStep{{0, msg.LockWrite}}); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()
	if err := c.Submit(5, 1, []LockStep{{1, msg.LockWrite}}); err != nil {
		t.Fatalf("duplicate Submit on a Host returned %v, want nil", err)
	}
	if got := c.Stats().ProtocolErrors; got != 1 {
		t.Fatalf("ProtocolErrors = %d, want 1", got)
	}
	host.Drain()
	if len(rejected) != 1 || rejected[0].Reason != ReasonDuplicateTxn || rejected[0].Node != 0 || rejected[0].From != 0 {
		t.Fatalf("OnProtocolError got %+v, want one %v from the controller itself", rejected, ReasonDuplicateTxn)
	}
	if after := c.Snapshot(); after != before {
		t.Fatalf("the rejected Submit changed the controller's state:\n%s\nbefore it:\n%s", after, before)
	}
}

// parkedTimers holds every continuation handed to it until the test
// releases them.
type parkedTimers struct {
	mu  sync.Mutex
	fns []func()
}

func (p *parkedTimers) After(_ int64, fn func()) {
	p.mu.Lock()
	p.fns = append(p.fns, fn)
	p.mu.Unlock()
}

func (p *parkedTimers) take() []func() {
	p.mu.Lock()
	defer p.mu.Unlock()
	fns := p.fns
	p.fns = nil
	return fns
}

// TestManualSubmitOnHostWaitsForFirstLockPoint: under InitiateManual,
// Submit on a Host returns only once its step has run: the first lock
// is held and the next lock point is parked in the caller's Timers, so
// a caller that paces lock points itself (the benchmark's probe-cost
// rung) can release them at once.
func TestManualSubmitOnHostWaitsForFirstLockPoint(t *testing.T) {
	host := engine.NewHost(engine.Options{Shards: 1})
	defer host.Close()
	timers := &parkedTimers{}
	c, err := NewController(Config{
		Site:         0,
		Transport:    host,
		Timers:       timers,
		ResourceHome: func(id.Resource) id.Site { return 0 },
		Mode:         InitiateManual,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1, 0, []LockStep{{0, msg.LockWrite}, {1, msg.LockWrite}}); err != nil {
		t.Fatal(err)
	}
	parked := timers.take()
	if len(parked) != 1 {
		t.Fatalf("%d lock points parked in Timers when Submit returned, want 1", len(parked))
	}
	held := func() int {
		n := 0
		c.run.Exec(func() { n = len(c.agents[1].held) })
		return n
	}
	if got := held(); got != 1 {
		t.Fatalf("T1 holds %d locks after Submit, want 1", got)
	}
	parked[0]()
	host.Drain()
	if got := held(); got != 2 {
		t.Fatalf("T1 holds %d locks after its second lock point, want 2", got)
	}
}

// TestConcurrentCommandsOnHost: eight clients Submit, and AbortLocal now
// and then, on two controllers on a two-shard Host with resolution on,
// over a few hot resources taken in random order, so that deadlocks
// form and victims are aborted while commands are still being posted.
// Every transaction ends committed or aborted, exactly once, and both
// controllers are empty afterwards. Run it under -race.
func TestConcurrentCommandsOnHost(t *testing.T) {
	const clients, perClient, hot = 8, 150, 8
	host := engine.NewHost(engine.Options{Shards: 2})
	defer host.Close()
	done := make([]chan id.Txn, clients)
	for g := range done {
		done[g] = make(chan id.Txn, 1)
	}
	finish := func(txn id.Txn) { done[int(txn-1)/perClient] <- txn }
	var ctrls [2]*Controller
	for i := range ctrls {
		c, err := NewController(Config{
			Site:         id.Site(i),
			Transport:    host,
			Timers:       realTimers{},
			ResourceHome: func(r id.Resource) id.Site { return id.Site(int(r) % 2) },
			Delay:        int64(time.Millisecond),
			Resolve:      true,
			Victim:       VictimYoungest,
			OnCommit:     finish,
			OnAbort:      finish,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctrls[i] = c
	}
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := ctrls[g%2]
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perClient; i++ {
				txn := id.Txn(g*perClient + i + 1)
				perm := rng.Perm(hot)
				steps := []LockStep{{id.Resource(perm[0]), msg.LockWrite}, {id.Resource(perm[1]), msg.LockWrite}, {id.Resource(perm[2]), msg.LockRead}}
				if err := c.Submit(txn, 0, steps); err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					c.AbortLocal(txn) // a no-op if it has already finished
				}
				select {
				case got := <-done[g]:
					if got != txn {
						t.Errorf("client %d: %v finished while waiting for %v", g, got, txn)
						return
					}
				case <-time.After(10 * time.Second):
					t.Errorf("client %d: %v neither committed nor aborted", g, txn)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var finished, aborts, declared, protoErrs uint64
	for _, c := range ctrls {
		drainUntilEmpty(t, host, c)
		st := c.Stats()
		finished += st.Commits + st.Aborts
		aborts += st.Aborts
		declared += st.DeclaredLocal + st.DeclaredRemote
		protoErrs += st.ProtocolErrors
	}
	t.Logf("%d transactions finished, %d aborted, %d deadlocks declared", finished, aborts, declared)
	if finished != clients*perClient || protoErrs != 0 {
		t.Fatalf("%d of %d transactions finished, %d protocol errors", finished, clients*perClient, protoErrs)
	}
}

// TestPooledFramesUnderLoad holds the ownership rule of pooled frames
// (msg/pool.go) under load: eight controllers on a four-shard Host run
// 20 000 transactions of three locks each, at sites on other shards, so
// that every frame is taken from a pool on one shard and recycled on
// another. Locks are taken in ascending resource order, so there is no
// deadlock and every transaction must commit. A frame recycled twice, or
// read after its send, is handed to two senders at once: a grant then
// reaches an agent that does not exist (a panic), a frame is rejected as
// a protocol error, a wait never ends or a transaction never commits.
func TestPooledFramesUnderLoad(t *testing.T) {
	const sites, shards, perClient, keys = 8, 4, 2500, 96
	host := engine.NewHost(engine.Options{Shards: shards})
	defer host.Close()
	done := make([]chan id.Txn, sites)
	for i := range done {
		done[i] = make(chan id.Txn, 1)
	}
	var waits waitCount
	var ctrls [sites]*Controller
	for i := range ctrls {
		home := i
		c, err := NewController(Config{
			Site:         id.Site(i),
			Transport:    host,
			Timers:       realTimers{},
			ResourceHome: func(r id.Resource) id.Site { return id.Site(int(r) % sites) },
			OnCommit:     func(txn id.Txn) { done[home] <- txn },
			OnAbort:      func(txn id.Txn) { t.Errorf("%v aborted", txn) },
			OnDeadlock:   func(a id.Agent, _ id.CtrlTag) { t.Errorf("%v declared deadlocked without a cycle", a) },
			OnWaitStart:  func(id.Agent) { waits.starts.Add(1) },
			OnWaitEnd:    func(id.Agent) { waits.ends.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		ctrls[i] = c
	}
	var wg sync.WaitGroup
	for g := 0; g < sites; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perClient; i++ {
				// Three keys at sites on the other shards, ascending.
				var ks []int
				for len(ks) < 3 {
					k := rng.Intn(keys)
					if k%shards != g%shards && !slices.Contains(ks, k) {
						ks = append(ks, k)
					}
				}
				slices.Sort(ks)
				steps := make([]LockStep, len(ks))
				for j, k := range ks {
					steps[j] = LockStep{id.Resource(k), msg.LockRead}
					if rng.Intn(2) == 0 {
						steps[j].Mode = msg.LockWrite
					}
				}
				txn := id.Txn(g*perClient + i + 1)
				if err := ctrls[g].Submit(txn, 0, steps); err != nil {
					t.Error(err)
					return
				}
				select {
				case got := <-done[g]:
					if got != txn {
						t.Errorf("site %d: %v committed while waiting for %v", g, got, txn)
						return
					}
				case <-time.After(10 * time.Second):
					t.Errorf("site %d: %v never committed", g, txn)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var commits, protoErrs uint64
	for _, c := range ctrls {
		drainUntilEmpty(t, host, c)
		st := c.Stats()
		commits += st.Commits
		protoErrs += st.ProtocolErrors
	}
	if commits != sites*perClient || protoErrs != 0 {
		t.Fatalf("%d of %d transactions committed, %d protocol errors", commits, sites*perClient, protoErrs)
	}
	if starts, ends := waits.starts.Load(), waits.ends.Load(); starts != ends || starts < 3*sites*perClient {
		t.Fatalf("%d wait starts and %d wait ends, want equal and at least one per remote lock (%d)",
			starts, ends, 3*sites*perClient)
	}
}
