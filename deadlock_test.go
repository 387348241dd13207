package deadlock_test

import (
	"sync"
	"testing"
	"time"

	deadlock "repro"
	"repro/internal/sim"
)

// TestPublicAPISimulation exercises the facade end to end: build,
// apply, run, inspect.
func TestPublicAPISimulation(t *testing.T) {
	sys, err := deadlock.NewSimulation(5, deadlock.SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Apply(deadlock.Ring(5)); err != nil {
		t.Fatal(err)
	}
	sys.Run(1 << 16)
	if len(sys.Detections) == 0 {
		t.Fatal("no detection through the public API")
	}
	if got := sys.Detections[0].Tag.Initiator; got != sys.Detections[0].Proc {
		t.Fatalf("initiator %v declared for tag %v", sys.Detections[0].Proc, sys.Detections[0].Tag)
	}
}

// TestPublicAPILiveNetwork runs the protocol concurrently on the
// facade's in-process runtime, with a ring plus an unrelated pair that
// must stay quiet.
func TestPublicAPILiveNetwork(t *testing.T) {
	net := deadlock.NewLiveNetwork()
	defer net.Close()
	const n = 6
	var mu sync.Mutex
	declared := map[deadlock.ProcID]deadlock.Tag{}
	done := make(chan struct{}, n)
	procs := make([]*deadlock.Process, n+2)
	for i := 0; i < n+2; i++ {
		pid := deadlock.ProcID(i)
		p, err := deadlock.NewProcess(deadlock.ProcessConfig{
			ID:        pid,
			Transport: net,
			Policy:    deadlock.InitiateOnBlock,
			OnDeadlock: func(tag deadlock.Tag) {
				mu.Lock()
				declared[pid] = tag
				mu.Unlock()
				done <- struct{}{}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	// Ring among 0..n-1; n and n+1 form a benign chain.
	for i := 0; i < n; i++ {
		if err := procs[i].Request(deadlock.ProcID((i + 1) % n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := procs[n].Request(deadlock.ProcID(n + 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("live detection timed out")
	}
	// The benign pair must never declare.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if _, bad := declared[deadlock.ProcID(n)]; bad {
		t.Fatal("benign waiter declared deadlock")
	}
	for pid := range declared {
		if int(pid) >= n {
			t.Fatalf("process %v outside the ring declared", pid)
		}
	}
}

// TestPublicAPITCPNetwork drives a 3-ring over real sockets through the
// facade.
func TestPublicAPITCPNetwork(t *testing.T) {
	net := deadlock.NewTCPNetwork()
	defer net.Close()
	detected := make(chan deadlock.Tag, 1)
	procs := make([]*deadlock.Process, 3)
	for i := 0; i < 3; i++ {
		cfg := deadlock.ProcessConfig{
			ID:        deadlock.ProcID(i),
			Transport: net,
			Policy:    deadlock.InitiateManually,
		}
		if i == 0 {
			cfg.OnDeadlock = func(tag deadlock.Tag) {
				select {
				case detected <- tag:
				default:
				}
			}
		}
		p, err := deadlock.NewProcess(cfg)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	for i := 0; i < 3; i++ {
		if err := procs[i].Request(deadlock.ProcID((i + 1) % 3)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := procs[0].StartProbe(); !ok {
		t.Fatal("initiator not blocked")
	}
	select {
	case tag := <-detected:
		if tag.Initiator != 0 {
			t.Fatalf("tag = %v", tag)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TCP detection timed out")
	}
}

// TestPublicAPIDDB drives the DDB facade: a deterministic cross-site
// deadlock with resolution and retry commits fully.
func TestPublicAPIDDB(t *testing.T) {
	db, err := deadlock.NewDDB(deadlock.DDBOptions{
		Sites:     2,
		Resources: 2,
		Seed:      3,
		Resolve:   true,
		HoldTime:  int64(sim.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := func(a, b deadlock.ResourceID) []deadlock.LockStep {
		return []deadlock.LockStep{
			{Resource: a, Mode: deadlock.LockWrite},
			{Resource: b, Mode: deadlock.LockWrite},
		}
	}
	if err := db.Submit(deadlock.TxnSpec{Txn: 0, Home: 0, Steps: steps(0, 1), Retry: true}); err != nil {
		t.Fatal(err)
	}
	if err := db.Submit(deadlock.TxnSpec{Txn: 1, Home: 1, Steps: steps(1, 0), Retry: true}); err != nil {
		t.Fatal(err)
	}
	doneAt, done := db.RunUntilCommitted(sim.Time(10 * sim.Second))
	if !done {
		t.Fatalf("not all committed by %v", doneAt)
	}
	if len(db.Detections) == 0 {
		t.Fatal("no detections recorded")
	}
}

// TestSimNetworkFacade wires raw processes on the facade's simulated
// network constructor.
func TestSimNetworkFacade(t *testing.T) {
	sched, net := deadlock.NewSimNetwork(9, nil)
	detected := false
	mk := func(i int) *deadlock.Process {
		cfg := deadlock.ProcessConfig{ID: deadlock.ProcID(i), Transport: net, Policy: deadlock.InitiateOnBlock}
		if i == 0 {
			cfg.OnDeadlock = func(deadlock.Tag) { detected = true }
		}
		p, err := deadlock.NewProcess(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(0), mk(1)
	if err := a.Request(1); err != nil {
		t.Fatal(err)
	}
	if err := b.Request(0); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if !detected {
		t.Fatal("2-cycle not detected on facade sim network")
	}
}
