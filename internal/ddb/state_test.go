package ddb

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/sim"
)

// TestStateRoundTrip drives a two-site cluster into a detected
// cross-site deadlock (lock table with queued waiters, remote holds,
// probe-computation table and latest table all populated), marshals
// every controller, restores each into a fresh controller of an
// identical unstarted cluster, and requires byte-identical Snapshot
// fingerprints — the conformance explorer's behavioural-equality
// oracle.
func TestStateRoundTrip(t *testing.T) {
	cl := newCluster(t, ClusterOptions{Sites: 2, Resources: 2, Seed: 31, HoldTime: int64(sim.Second)})
	w := msg.LockWrite
	mustSubmit(t, cl, TxnSpec{Txn: 0, Home: 0, Steps: []LockStep{{0, w}, {1, w}}})
	mustSubmit(t, cl, TxnSpec{Txn: 1, Home: 1, Steps: []LockStep{{1, w}, {0, w}}})
	run(t, cl)
	if len(cl.Detections) == 0 {
		t.Fatal("cross-site cycle not detected; state would be trivial")
	}

	fresh := newCluster(t, ClusterOptions{Sites: 2, Resources: 2, Seed: 31, HoldTime: int64(sim.Second)})
	for i, c := range cl.Controllers {
		blob := c.MarshalState()
		if len(blob) == 0 {
			t.Fatalf("controller %d: empty state blob", i)
		}
		if err := fresh.Controllers[i].RestoreState(blob); err != nil {
			t.Fatalf("controller %d: RestoreState: %v", i, err)
		}
		if got, want := fresh.Controllers[i].Snapshot(), c.Snapshot(); got != want {
			t.Fatalf("controller %d: snapshot mismatch after restore\n got %s\nwant %s", i, got, want)
		}
		if rt := fresh.Controllers[i].MarshalState(); !bytes.Equal(blob, rt) {
			t.Fatalf("controller %d: restored state re-marshals differently", i)
		}
	}
}

// TestRestoredWaitArmsDetection: a deadlock standing at the cut is
// declared after a restore. The waits' §4.3 timers are not part of the
// state, so RestoreState must arm a full T for every open wait; without
// that nothing ever initiates for the restored cycle. Both a checkpoint
// restore and a migration install go through RestoreState; the sim leg
// paces detection through Config.Timers, the host leg on the wheel.
func TestRestoredWaitArmsDetection(t *testing.T) {
	w := msg.LockWrite
	// T1 at S0 and T2 at S1 each lock their home resource, then, a step
	// later, ask for the other's: a two-site cycle.
	scripts := [2][]LockStep{{{0, w}, {1, w}}, {{1, w}, {0, w}}}

	t.Run("sim", func(t *testing.T) {
		opts := ClusterOptions{Sites: 2, Resources: 2, Seed: 41, Delay: int64(100 * sim.Millisecond),
			StepDelay: int64(10 * sim.Millisecond), HoldTime: int64(sim.Second)}
		cl := newCluster(t, opts)
		for i, steps := range scripts {
			mustSubmit(t, cl, TxnSpec{Txn: id.Txn(i + 1), Home: id.Site(i), Steps: steps})
		}
		cl.Sched.RunUntil(sim.Time(40 * sim.Millisecond))
		if len(cl.Detections) != 0 || !cl.Controllers[0].AgentBlocked(1) || !cl.Controllers[1].AgentBlocked(2) {
			t.Fatal("test premise broken: want both transactions waiting and nothing declared at the cut")
		}
		fresh := newCluster(t, opts)
		for i, c := range cl.Controllers {
			if err := fresh.Controllers[i].RestoreState(c.MarshalState()); err != nil {
				t.Fatal(err)
			}
		}
		fresh.Sched.RunUntil(sim.Time(5 * opts.Delay))
		if len(fresh.Detections) == 0 {
			t.Fatal("restored deadlock not declared within 5 T")
		}
	})

	t.Run("host", func(t *testing.T) {
		const delay = 100 * time.Millisecond
		pair := func(onDeadlock func(id.Agent, id.CtrlTag)) (*engine.Host, [2]*Controller) {
			host := engine.NewHost(engine.Options{Shards: 2})
			t.Cleanup(host.Close)
			var cs [2]*Controller
			for i := range cs {
				c, err := NewController(Config{
					Site:         id.Site(i),
					Transport:    host,
					Timers:       realTimers{},
					ResourceHome: func(r id.Resource) id.Site { return id.Site(int(r) % 2) },
					Delay:        int64(delay),
					StepDelay:    int64(10 * time.Millisecond),
					HoldTime:     int64(time.Minute),
					OnDeadlock:   onDeadlock,
				})
				if err != nil {
					t.Fatal(err)
				}
				cs[i] = c
			}
			return host, cs
		}
		orig, cs := pair(nil)
		for i, steps := range scripts {
			if err := cs[i].Submit(id.Txn(i+1), 0, steps); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); !cs[0].AgentBlocked(1) || !cs[1].AgentBlocked(2); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("test premise broken: the cycle never formed")
			}
		}
		orig.Drain()
		var blobs [2][]byte
		for i, c := range cs {
			c.run.Exec(func() { blobs[i] = c.MarshalState() })
		}
		orig.Close()

		declared := make(chan id.Agent, 1)
		_, fresh := pair(func(a id.Agent, _ id.CtrlTag) {
			select {
			case declared <- a:
			default:
			}
		})
		for i, c := range fresh {
			var err error
			c.run.Exec(func() { err = c.RestoreState(blobs[i]) })
			if err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-declared:
		case <-time.After(50 * delay):
			t.Fatal("restored deadlock not declared within 50 T")
		}
	})
}

// TestRestoreStateRejectsBadInput: truncation and version mismatches
// must error without mutating the controller.
func TestRestoreStateRejectsBadInput(t *testing.T) {
	cl := newCluster(t, ClusterOptions{Sites: 1, Resources: 2, Seed: 32, HoldTime: int64(sim.Millisecond)})
	w := msg.LockWrite
	mustSubmit(t, cl, TxnSpec{Txn: 0, Home: 0, Steps: []LockStep{{0, w}, {1, w}}})
	mustSubmit(t, cl, TxnSpec{Txn: 1, Home: 0, Steps: []LockStep{{1, w}, {0, w}}})
	run(t, cl)
	c := cl.Controllers[0]
	before := c.Snapshot()
	blob := c.MarshalState()

	if err := c.RestoreState(blob[:len(blob)/2]); err == nil {
		t.Error("truncated blob: want error")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 0xEE
	if err := c.RestoreState(bad); err == nil {
		t.Error("wrong version: want error")
	}
	if got := c.Snapshot(); got != before {
		t.Errorf("failed restore mutated state:\n got %s\nwant %s", got, before)
	}
}

// wedgedCluster drives three sites into a standing cross-site deadlock
// that populates every per-transaction collection with more than one
// entry: shared holders, a two-deep wait queue, several local and remote
// holds, pending acquisitions, probe computations. withFinished adds a
// transaction that commits and one that is aborted before the snapshot.
func wedgedCluster(t *testing.T, withFinished bool) *Cluster {
	t.Helper()
	cl := newCluster(t, ClusterOptions{Sites: 3, Resources: 6, Seed: 33, HoldTime: int64(sim.Second)})
	r, w := msg.LockRead, msg.LockWrite
	mustSubmit(t, cl, TxnSpec{Txn: 0, Home: 0, Steps: []LockStep{{3, w}, {1, r}, {4, r}, {0, w}, {2, w}}})
	mustSubmit(t, cl, TxnSpec{Txn: 2, Home: 2, Steps: []LockStep{{2, w}, {5, r}, {3, w}}})
	mustSubmit(t, cl, TxnSpec{Txn: 7, Home: 1, Steps: []LockStep{{1, r}, {4, r}, {2, w}}})
	if withFinished {
		mustSubmit(t, cl, TxnSpec{Txn: 9, Home: 1, Steps: []LockStep{{4, r}}})
		mustSubmit(t, cl, TxnSpec{Txn: 8, Home: 0, Steps: []LockStep{{5, w}}})
		cl.Sched.RunUntil(sim.Time(20 * sim.Millisecond))
		cl.Controllers[0].AbortLocal(8)
	}
	run(t, cl)
	wantCommits := 0
	if withFinished {
		wantCommits = 1
	}
	if len(cl.Detections) == 0 || cl.CommittedCount() != wantCommits {
		t.Fatalf("scenario premise broken: %d detections, %d commits", len(cl.Detections), cl.CommittedCount())
	}
	return cl
}

// goldenStates reads one hex-encoded MarshalState blob per controller,
// as written by the commit before finished transactions were forgotten.
func goldenStates(t *testing.T, name string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Fields(string(raw)) {
		blob, err := hex.DecodeString(line)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blob)
	}
	return out
}

// TestMarshalStateLayoutUnchanged: the sorted associations write the
// bytes the maps wrote. A state with no finished transaction marshals
// byte-identically to the golden blobs of the commit before the change.
func TestMarshalStateLayoutUnchanged(t *testing.T) {
	cl := wedgedCluster(t, false)
	golden := goldenStates(t, "state_v1_live.hex")
	for i, c := range cl.Controllers {
		if got := c.MarshalState(); !bytes.Equal(got, golden[i]) {
			t.Errorf("controller %d: MarshalState differs from the version-1 golden\n got %x\nwant %x", i, got, golden[i])
		}
	}
}

// TestRestoreStateDropsFinishedTransactions: a checkpoint written when
// controllers still kept finished transactions restores, minus those
// transactions, to exactly the state this code reaches by itself.
func TestRestoreStateDropsFinishedTransactions(t *testing.T) {
	cl := wedgedCluster(t, true)
	golden := goldenStates(t, "state_v1_finished.hex")
	fresh := newCluster(t, ClusterOptions{Sites: 3, Resources: 6, Seed: 33, HoldTime: int64(sim.Second)})
	for i, c := range cl.Controllers {
		if err := fresh.Controllers[i].RestoreState(golden[i]); err != nil {
			t.Fatalf("controller %d: RestoreState: %v", i, err)
		}
		if got, want := fresh.Controllers[i].Snapshot(), c.Snapshot(); got != want {
			t.Errorf("controller %d: restored old checkpoint\n got %s\nwant %s", i, got, want)
		}
		if got, want := fresh.Controllers[i].MarshalState(), c.MarshalState(); !bytes.Equal(got, want) {
			t.Errorf("controller %d: restored old checkpoint re-marshals differently", i)
		}
	}
	// Sites 0 and 1 homed the aborted and the committed transaction.
	for _, i := range []int{0, 1} {
		if now, then := len(cl.Controllers[i].MarshalState()), len(golden[i]); now >= then {
			t.Errorf("controller %d: %d bytes now, %d with the finished transaction kept", i, now, then)
		}
	}
}
