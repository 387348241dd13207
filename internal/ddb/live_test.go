package ddb

import (
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
)

// realTimers schedules on the wall clock for the real-time tests.
type realTimers struct{}

func (realTimers) After(d int64, fn func()) { time.AfterFunc(time.Duration(d), fn) }

// TestLiveControllersDetectCrossSiteDeadlock runs two controllers on a
// two-shard Host, one site per shard goroutine, with real timers: the
// paper's canonical two-site deadlock must be detected on actual
// concurrent hardware, not just in the simulator.
func TestLiveControllersDetectCrossSiteDeadlock(t *testing.T) {
	net := engine.NewHost(engine.Options{Shards: 2})
	defer net.Close()
	detected := make(chan id.Agent, 4)
	var once sync.Once
	mk := func(site id.Site) *Controller {
		c, err := NewController(Config{
			Site:         site,
			Transport:    net,
			Timers:       realTimers{},
			ResourceHome: func(r id.Resource) id.Site { return id.Site(int(r) % 2) },
			Mode:         InitiateOnWaitDelay,
			Delay:        int64(5 * time.Millisecond),
			// Each transaction pauses between its lock points, so both hold
			// their first lock before either asks for its second; with no
			// StepDelay T0's whole script is one step and its acquisition
			// races T1's Submit.
			StepDelay: int64(50 * time.Millisecond),
			HoldTime:  int64(10 * time.Second),
			OnDeadlock: func(target id.Agent, _ id.CtrlTag) {
				once.Do(func() { detected <- target })
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c0, c1 := mk(0), mk(1)
	w := msg.LockWrite
	if err := c0.Submit(0, 0, []LockStep{{Resource: 0, Mode: w}, {Resource: 1, Mode: w}}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Submit(1, 0, []LockStep{{Resource: 1, Mode: w}, {Resource: 0, Mode: w}}); err != nil {
		t.Fatal(err)
	}
	select {
	case target := <-detected:
		if target.Txn != 0 && target.Txn != 1 {
			t.Fatalf("unexpected victim %v", target)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("live cross-site detection timed out")
	}
}

// TestLiveControllersResolveAndCommit adds resolution on the two-shard
// Host: both transactions must commit for the test to pass.
func TestLiveControllersResolveAndCommit(t *testing.T) {
	net := engine.NewHost(engine.Options{Shards: 2})
	defer net.Close()
	var mu sync.Mutex
	committed := map[id.Txn]bool{}
	aborted := make(chan id.Txn, 8)
	done := make(chan struct{}, 4)
	ctrls := make([]*Controller, 2)
	for i := range ctrls {
		site := id.Site(i)
		c, err := NewController(Config{
			Site:         site,
			Transport:    net,
			Timers:       realTimers{},
			ResourceHome: func(r id.Resource) id.Site { return id.Site(int(r) % 2) },
			Mode:         InitiateOnWaitDelay,
			Delay:        int64(3 * time.Millisecond),
			Resolve:      true,
			HoldTime:     int64(time.Millisecond),
			OnCommit: func(txn id.Txn) {
				mu.Lock()
				committed[txn] = true
				mu.Unlock()
				done <- struct{}{}
			},
			OnAbort: func(txn id.Txn) { aborted <- txn },
		})
		if err != nil {
			t.Fatal(err)
		}
		ctrls[i] = c
	}
	w := msg.LockWrite
	scripts := map[id.Txn][]LockStep{
		0: {{Resource: 0, Mode: w}, {Resource: 1, Mode: w}},
		1: {{Resource: 1, Mode: w}, {Resource: 0, Mode: w}},
	}
	incs := map[id.Txn]uint32{}
	submit := func(txn id.Txn) {
		home := ctrls[int(txn)]
		mu.Lock()
		inc := incs[txn]
		mu.Unlock()
		if err := home.Submit(txn, inc, scripts[txn]); err != nil {
			t.Error(err)
		}
	}
	submit(0)
	submit(1)

	deadline := time.After(20 * time.Second)
	for {
		mu.Lock()
		ok := committed[0] && committed[1]
		mu.Unlock()
		if ok {
			return
		}
		select {
		case txn := <-aborted:
			// Retry the victim with a fresh incarnation after a pause.
			mu.Lock()
			incs[txn]++
			mu.Unlock()
			time.AfterFunc(5*time.Millisecond, func() { submit(txn) })
		case <-done:
		case <-deadline:
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("live resolution stalled: committed=%v", committed)
		}
	}
}
