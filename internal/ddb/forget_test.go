package ddb

// A finished transaction leaves nothing behind (DESIGN.md §10): these
// tests pin what the controller's memory is a function of, what each
// late frame does once its transaction is forgotten, and that recycled
// states come back clean.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/transport"
)

// hostedPair puts two controllers on one two-shard Host with no pacing
// delays and timers that never fire; even resources live at site 0, odd
// ones at site 1. onFinish runs on the home controller's shard when a
// transaction commits or aborts.
func hostedPair(tb testing.TB, onFinish func(id.Txn)) (*engine.Host, [2]*Controller) {
	tb.Helper()
	host := engine.NewHost(engine.Options{Shards: 2})
	tb.Cleanup(host.Close)
	var ctrls [2]*Controller
	for i := range ctrls {
		c, err := NewController(Config{
			Site:         id.Site(i),
			Transport:    host,
			Timers:       &countingTimers{},
			ResourceHome: func(r id.Resource) id.Site { return id.Site(int(r) % 2) },
			OnCommit:     onFinish,
			OnAbort:      onFinish,
		})
		if err != nil {
			tb.Fatal(err)
		}
		ctrls[i] = c
	}
	return host, ctrls
}

// liveCounts reads the sizes of a controller's per-transaction tables.
func liveCounts(c *Controller) (txns, agents, locks int) {
	c.run.Exec(func() { txns, agents, locks = len(c.txns), len(c.agents), len(c.locks.locks) })
	return
}

// drainUntilEmpty drains the Host until the controller holds no
// transaction, agent or lock entry: once every client has its outcome,
// a release can still be in flight to the other site.
func drainUntilEmpty(t *testing.T, host *engine.Host, c *Controller) {
	t.Helper()
	for try := 0; ; try++ {
		host.Drain()
		txns, agents, locks := liveCounts(c)
		if txns+agents+locks == 0 {
			return
		}
		if try > 1000 {
			t.Fatalf("site %v not empty after every client finished: %s", c.Site(), c.Snapshot())
		}
	}
}

// TestMarshalStateHoldsOnlyLiveTransactions is the regression test for
// the unbounded checkpoint: after 100 000 commits the controller holds,
// and MarshalState writes, exactly what an idle controller does.
func TestMarshalStateHoldsOnlyLiveTransactions(t *testing.T) {
	c, runTxn := localTxnRig(t) // three local locks, committed in Submit's step
	empty := len(c.MarshalState())
	for i := 0; i < 100_000; i++ {
		runTxn(i)
	}
	if got := c.Stats().Commits; got != 100_000 {
		t.Fatalf("%d of 100000 transactions committed", got)
	}
	if txns, agents, locks := liveCounts(c); txns != 0 || agents != 0 || locks != 0 {
		t.Fatalf("idle controller still holds %d transactions, %d agents, %d lock entries", txns, agents, locks)
	}
	if got := len(c.MarshalState()); got != empty {
		t.Fatalf("MarshalState is %d bytes after 100000 commits, %d on a fresh controller", got, empty)
	}
}

// sentFrame is one frame a controller under recTransport sent.
type sentFrame struct {
	to transport.NodeID
	m  msg.Message
}

// recTransport records what a lone controller sends, in value form; the
// test plays the peer by calling HandleMessage.
type recTransport struct{ sent []sentFrame }

func (r *recTransport) Register(transport.NodeID, transport.Handler) {}
func (r *recTransport) Send(_, to transport.NodeID, m msg.Message) {
	r.sent = append(r.sent, sentFrame{to: to, m: msg.Deref(m)})
}

// TestLateFramesAfterForget: T5 (home S0, incarnation 2) asked S1 for r1
// and finished — committed after the grant, or aborted before it. Every
// frame that can still name it then meets a controller with no entry
// for it, and must do what it did when the entry said "not running".
func TestLateFramesAfterForget(t *testing.T) {
	const s1 = transport.NodeID(1)
	grant := func(inc uint32) msg.Message { return msg.CtrlGranted{Txn: 5, Resource: 1, Inc: inc} }
	handBack := func(inc uint32) sentFrame {
		return sentFrame{to: s1, m: msg.CtrlRelease{Txn: 5, Resource: 1, Inc: inc}}
	}
	frames := []struct {
		name string
		// play drives the forgotten controller and returns what it must
		// have sent in response; quiet says its state must not move.
		play  func(t *testing.T, c *Controller) []sentFrame
		quiet bool
	}{
		{"granted is handed back", func(t *testing.T, c *Controller) []sentFrame {
			c.HandleMessage(s1, grant(2))
			return []sentFrame{handBack(2)}
		}, true},
		{"abort does nothing", func(t *testing.T, c *Controller) []sentFrame {
			c.HandleMessage(s1, msg.CtrlAbort{Txn: 5})
			return nil
		}, true},
		{"probe is not meaningful", func(t *testing.T, c *Controller) []sentFrame {
			// Holder-home edge: T9 at S1 waits on what T5's agent held there.
			edge := id.AgentEdge{From: id.Agent{Txn: 9, Site: 1}, To: id.Agent{Txn: 5, Site: 0}}
			c.HandleMessage(s1, msg.CtrlProbe{Tag: id.CtrlTag{Initiator: 1, N: 1}, Edge: edge})
			if got := c.Stats().ProbesDropped; got != 1 {
				t.Errorf("ProbesDropped = %d, want 1", got)
			}
			return nil
		}, true},
		{"resubmit starts fresh", func(t *testing.T, c *Controller) []sentFrame {
			if err := c.Submit(5, 3, []LockStep{{1, msg.LockWrite}}); err != nil {
				t.Fatalf("resubmit under the next incarnation: %v", err)
			}
			c.HandleMessage(s1, grant(2)) // the old incarnation's grant, late
			if !c.AgentBlocked(5) {
				t.Error("old-incarnation grant satisfied the new incarnation's acquisition")
			}
			c.HandleMessage(s1, grant(3))
			return []sentFrame{
				{to: s1, m: msg.CtrlAcquire{Txn: 5, Resource: 1, Mode: msg.LockWrite, Inc: 3}},
				handBack(2),
				handBack(3), // the commit's release
			}
		}, false},
	}
	for _, finish := range []string{"commit", "abort"} {
		for _, f := range frames {
			t.Run(finish+"/"+f.name, func(t *testing.T) {
				net := &recTransport{}
				var finished []string
				c, err := NewController(Config{
					Site:         0,
					Transport:    net,
					Timers:       &countingTimers{},
					ResourceHome: func(r id.Resource) id.Site { return id.Site(int(r) % 2) },
					OnCommit:     func(txn id.Txn) { finished = append(finished, fmt.Sprint("commit ", txn)) },
					OnAbort:      func(txn id.Txn) { finished = append(finished, fmt.Sprint("abort ", txn)) },
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Submit(5, 2, []LockStep{{1, msg.LockWrite}}); err != nil {
					t.Fatal(err)
				}
				if finish == "commit" {
					c.HandleMessage(s1, grant(2))
				} else {
					c.AbortLocal(5)
				}
				if txns, agents, _ := liveCounts(c); txns != 0 || agents != 0 || len(finished) != 1 {
					t.Fatalf("premise: T5 not finished and forgotten (txns=%d agents=%d callbacks=%v)", txns, agents, finished)
				}
				before, stats := c.Snapshot(), c.Stats()
				net.sent, finished = nil, nil

				want := f.play(t, c)
				if got := fmt.Sprintf("%#v", net.sent); got != fmt.Sprintf("%#v", want) {
					t.Errorf("sent %s, want %#v", got, want)
				}
				after := c.Stats()
				if f.quiet {
					if got := c.Snapshot(); got != before {
						t.Errorf("state moved:\n got %s\nwant %s", got, before)
					}
					if len(finished) != 0 || after.Commits != stats.Commits || after.Aborts != stats.Aborts {
						t.Errorf("late frame finished something: callbacks %v, stats %+v", finished, after)
					}
				} else if fmt.Sprint(finished) != "[commit T5]" {
					t.Errorf("resubmitted transaction: callbacks %v, want one commit", finished)
				}
				if after.ProtocolErrors != 0 {
					t.Errorf("late frame counted as a protocol error: %+v", after)
				}
			})
		}
	}
}

// TestAbortedOnReadyIsNotRevisited: a transaction aborted while it sits
// on the ready list is on the free list when drainReadyStep reaches it,
// and a Submit from OnAbort then takes that very state. The stale entry
// must not advance anything, and must be gone from the list's backing
// array when the step is over.
func TestAbortedOnReadyIsNotRevisited(t *testing.T) {
	host := engine.NewHost(engine.Options{Shards: 1})
	defer host.Close()
	var c *Controller
	var resubmitErr error
	c, err := NewController(Config{
		Site:         0,
		Transport:    host,
		Timers:       &countingTimers{}, // HoldTime never elapses: T1 keeps its locks
		ResourceHome: func(id.Resource) id.Site { return 0 },
		HoldTime:     1,
		OnAbort: func(id.Txn) {
			resubmitErr = c.Submit(2, 0, []LockStep{{7, msg.LockWrite}, {8, msg.LockRead}})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1, 0, []LockStep{{0, msg.LockWrite}, {1, msg.LockWrite}}); err != nil {
		t.Fatal(err)
	}
	var stale *txnState
	c.fx.Exec(c.run, func() {
		stale = c.txns[1]
		stale.next = 0 // were it revisited, it would lock r0 again
		c.ready = append(c.ready, stale)
		c.abortStep(stale)
	})
	if resubmitErr != nil {
		t.Fatal(resubmitErr)
	}
	c.run.Exec(func() {
		if got := c.txns[2]; got != stale {
			t.Errorf("T2 did not reuse T1's recycled state (%p, %p)", got, stale)
		}
		if ts := c.txns[2]; ts.txn != 2 || ts.next != 2 || ts.status != TxnRunning || len(c.txns) != 1 {
			t.Errorf("recycled state: %+v in %d transactions", ts, len(c.txns))
		}
		if a := c.agents[2]; len(c.agents) != 1 || fmt.Sprint(a.held) != "[{7 2} {8 1}]" {
			t.Errorf("agents after the resubmit: %d, T2 holds %v", len(c.agents), a.held)
		}
		if len(c.locks.locks) != 2 {
			t.Errorf("%d lock entries, want T2's two: the aborted transaction was advanced", len(c.locks.locks))
		}
		for i, ts := range c.ready[:cap(c.ready)] {
			if ts != nil {
				t.Errorf("ready[%d] still points at a state after its step", i)
			}
		}
	})
}

// TestRecycledAgentAndLockStateAreClean: a remote agent torn down while
// it waits (every field of it in use) and a lock entry that had a holder
// and a queue come back from the free lists, for a new incarnation of
// the same transaction, with nothing of their past.
func TestRecycledAgentAndLockStateAreClean(t *testing.T) {
	sched, ctrls := harness(t, 2)
	r, w := msg.LockRead, msg.LockWrite
	step := func(at sim.Time) { sched.RunUntil(at * sim.Time(sim.Millisecond)) }
	// T9 (home S1) holds r1; T1 and T3 (home S0) queue behind it at S1.
	for _, s := range []struct {
		c     *Controller
		txn   id.Txn
		steps []LockStep
	}{{ctrls[1], 9, []LockStep{{1, w}}}, {ctrls[0], 1, []LockStep{{1, w}}}, {ctrls[0], 3, []LockStep{{1, r}}}} {
		if err := s.c.Submit(s.txn, 0, s.steps); err != nil {
			t.Fatal(err)
		}
		step(sched.Now()/sim.Time(sim.Millisecond) + 5)
	}
	var oldLock *lockState
	ctrls[1].run.Exec(func() {
		oldLock = ctrls[1].locks.locks[1]
		if a := ctrls[1].agents[1]; a == nil || !a.hasWaiting || !a.hasPendingAck || len(oldLock.queue) != 2 {
			t.Fatalf("premise: T1's agent %+v, r1 %+v", a, oldLock)
		}
	})
	// Everyone aborts; S1 ends up with nothing but free lists.
	ctrls[0].AbortLocal(1)
	ctrls[0].AbortLocal(3)
	step(25)
	ctrls[1].AbortLocal(9)
	var recycled []*agentState
	ctrls[1].run.Exec(func() {
		if len(ctrls[1].agents) != 0 || len(ctrls[1].locks.locks) != 0 {
			t.Fatalf("S1 not idle: %s", ctrls[1].snapshotStep())
		}
		recycled = append(recycled, ctrls[1].freeAgents...)
		if free := ctrls[1].locks.free; len(free) != 1 || free[0] != oldLock || len(oldLock.holders)+len(oldLock.queue) != 0 {
			t.Fatalf("lock free list %v, want r1's emptied entry", free)
		}
	})
	if len(recycled) != 3 {
		t.Fatalf("%d agent states recycled at S1, want 3", len(recycled))
	}

	// T1 comes back under incarnation 1 and takes r3 at S1 unopposed.
	if err := ctrls[0].Submit(1, 1, []LockStep{{3, w}}); err != nil {
		t.Fatal(err)
	}
	step(35)
	ctrls[1].run.Exec(func() {
		a := ctrls[1].agents[1]
		if a != recycled[len(recycled)-1] {
			t.Errorf("T1's new agent %p is not the last state freed (%p)", a, recycled[len(recycled)-1])
		}
		if a.txn != 1 || a.home != 0 || a.inc != 1 || a.hasWaiting || a.hasPendingAck || a.wait != 0 ||
			fmt.Sprint(a.held) != "[{3 2}]" {
			t.Errorf("recycled agent = %+v, want only txn, home, inc 1 and the hold on r3", *a)
		}
		ls := ctrls[1].locks.locks[3]
		if ls != oldLock {
			t.Errorf("r3's entry %p is not r1's recycled one (%p)", ls, oldLock)
		}
		if fmt.Sprint(ls.holders) != "[{1 2}]" || len(ls.queue) != 0 || cap(ls.queue) < 2 {
			t.Errorf("recycled lock entry: holders %v queue %v (cap %d), want T1 alone and the old queue's capacity",
				ls.holders, ls.queue, cap(ls.queue))
		}
	})
}

// TestRecyclingUnderConcurrentClients is the race-detector leg: several
// client goroutines drive two hosted controllers through local and
// remote lock points while aborting some of their own transactions, so
// states are freed and retaken on both shards continuously. Resources
// are requested in ascending order, so nothing deadlocks (the timers
// never fire). Afterwards both controllers are empty and their free
// lists are bounded by what was in flight, not by what was run.
func TestRecyclingUnderConcurrentClients(t *testing.T) {
	const clients, perClient = 6, 400
	done := make([]chan id.Txn, clients)
	for g := range done {
		done[g] = make(chan id.Txn, 1)
	}
	host, ctrls := hostedPair(t, func(txn id.Txn) { done[int(txn)/perClient] <- txn })
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := ctrls[g%2]
			for i := 0; i < perClient; i++ {
				txn := id.Txn(g*perClient + i)
				// Three of eight hot resources, ascending, mixed modes.
				k := id.Resource((g + i) % 6)
				steps := []LockStep{{k, msg.LockWrite}, {k + 1, msg.LockRead}, {k + 2, msg.LockWrite}}
				if err := c.Submit(txn, uint32(i), steps); err != nil {
					t.Error(err)
					return
				}
				if i%4 == 0 {
					c.AbortLocal(txn) // a no-op if it has already committed
				}
				if got := <-done[g]; got != txn {
					t.Errorf("client %d: %v finished while waiting for %v", g, got, txn)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i, c := range ctrls {
		drainUntilEmpty(t, host, c)
		c.run.Exec(func() {
			st := c.commits + c.aborts
			if n := len(c.freeTxns); n > clients || len(c.freeAgents) > 2*clients || len(c.locks.free) > 3*clients {
				t.Errorf("site %d: free lists of %d transactions, %d agents, %d lock entries after %d finished with %d clients",
					i, n, len(c.freeAgents), len(c.locks.free), st, clients)
			}
		})
	}
}

// TestHeapFlatInCommitCount: 200 000 commits through two controllers on
// one Host, every transaction taking a local lock and two at the other
// site. The live heap after the last one is what it was after the first
// 20 000 — the controllers' memory is a function of the transactions in
// flight.
func TestHeapFlatInCommitCount(t *testing.T) {
	const window = 32
	tokens := make(chan struct{}, window)
	host, ctrls := hostedPair(t, func(id.Txn) { tokens <- struct{}{} })
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	scripts := make([][]LockStep, 1024) // disjoint among any 32 in flight
	for i := range scripts {
		k := id.Resource(4 * i)
		home := id.Resource(i % 2) // the submitting site's parity
		scripts[i] = []LockStep{{k + home, msg.LockWrite}, {k + 1 - home, msg.LockRead}, {k + 3 - home, msg.LockRead}}
	}
	heapAfter := func(total, from int) uint64 {
		for i := from; i < total; i++ {
			<-tokens
			if err := ctrls[i%2].Submit(id.Txn(i), 0, scripts[i%len(scripts)]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < window; i++ { // every transaction has committed
			<-tokens
		}
		for i := 0; i < window; i++ {
			tokens <- struct{}{}
		}
		host.Drain()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	at20k := heapAfter(20_000, 0)
	at200k := heapAfter(200_000, 20_000)
	t.Logf("HeapAlloc after GC: %d B at 20k commits, %d B at 200k", at20k, at200k)
	if at200k > at20k+1<<20 {
		t.Fatalf("live heap grew from %d B at 20000 commits to %d B at 200000: finished transactions are being kept", at20k, at200k)
	}
	var commits uint64
	for _, c := range ctrls {
		commits += c.Stats().Commits
	}
	if commits != 200_000 {
		t.Fatalf("%d commits, want 200000", commits)
	}
}
