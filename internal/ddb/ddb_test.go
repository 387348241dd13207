package ddb

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/sim"
)

// newCluster is a test helper.
func newCluster(t *testing.T, opts ClusterOptions) *Cluster {
	t.Helper()
	cl, err := NewCluster(opts)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl
}

// run drives the cluster with a generous event budget.
func run(t *testing.T, cl *Cluster) {
	t.Helper()
	if n := cl.Run(1 << 22); n >= 1<<22 {
		t.Fatalf("event budget exhausted (livelock?)")
	}
}

func TestLocalLockCycleDetected(t *testing.T) {
	// Two transactions at one site locking r0, r2 in opposite orders:
	// a purely intra-controller cycle, declared by A0 without any probe
	// message. Resource homes: r mod sites, so with 1 site all local.
	// The explicit StepDelay is what lets T1 take r2 between T0's two
	// lock points: with none, T0's whole script is one atomic step.
	cl := newCluster(t, ClusterOptions{Sites: 1, Resources: 4, Seed: 1,
		StepDelay: int64(100 * sim.Microsecond), HoldTime: int64(sim.Millisecond)})
	w := msg.LockWrite
	mustSubmit(t, cl, TxnSpec{Txn: 0, Home: 0, Steps: []LockStep{{0, w}, {2, w}}})
	mustSubmit(t, cl, TxnSpec{Txn: 1, Home: 0, Steps: []LockStep{{2, w}, {0, w}}})
	run(t, cl)
	if len(cl.Detections) == 0 {
		t.Fatal("intra-controller cycle not detected")
	}
	if cl.FalseDetections() != 0 {
		t.Fatalf("%d false detections", cl.FalseDetections())
	}
	st := cl.Controllers[0].Stats()
	if st.ProbesSent != 0 {
		t.Errorf("local cycle used %d probes, want 0 (A0 declares locally)", st.ProbesSent)
	}
}

func TestCrossSiteAcquisitionCycleDetected(t *testing.T) {
	// The paper's canonical two-site deadlock: T0 home S0 holds r0@S0,
	// requests r1@S1; T1 home S1 holds r1@S1, requests r0@S0. Two
	// inter-controller acquisition edges + two intra edges = dark
	// cycle spanning both controllers.
	cl := newCluster(t, ClusterOptions{Sites: 2, Resources: 2, Seed: 2, HoldTime: int64(sim.Second)})
	w := msg.LockWrite
	mustSubmit(t, cl, TxnSpec{Txn: 0, Home: 0, Steps: []LockStep{{0, w}, {1, w}}})
	mustSubmit(t, cl, TxnSpec{Txn: 1, Home: 1, Steps: []LockStep{{1, w}, {0, w}}})
	run(t, cl)
	if len(cl.Detections) == 0 {
		t.Fatal("cross-site cycle not detected")
	}
	if cl.FalseDetections() != 0 {
		t.Fatalf("%d false detections", cl.FalseDetections())
	}
	// The oracle must agree there is a deadlock involving both txns.
	dead := cl.Oracle.DeadlockedTxns()
	if len(dead) != 2 {
		t.Fatalf("oracle deadlocked txns = %v, want both", dead)
	}
}

func TestRemoteHoldCycleDetected(t *testing.T) {
	// The case the paper's §6.4 edge set alone cannot see (DESIGN.md):
	// T0 (home S0) first acquires remote r1@S1, then waits for local
	// r0@S0; T1 (home S1) first acquires remote r0@S0, then waits for
	// local r1@S1. At deadlock time no acquisition is pending — the
	// cycle runs through holder-home edges.
	cl := newCluster(t, ClusterOptions{Sites: 2, Resources: 2, Seed: 3, HoldTime: int64(sim.Second)})
	w := msg.LockWrite
	// r0 homed at S0, r1 homed at S1.
	mustSubmit(t, cl, TxnSpec{Txn: 0, Home: 0, Steps: []LockStep{{1, w}, {0, w}}})
	mustSubmit(t, cl, TxnSpec{Txn: 1, Home: 1, Steps: []LockStep{{0, w}, {1, w}}})
	run(t, cl)
	dead := cl.Oracle.DeadlockedTxns()
	if len(dead) != 2 {
		t.Skipf("timing did not produce the remote-hold deadlock (oracle: %v)", dead)
	}
	if len(cl.Detections) == 0 {
		t.Fatal("remote-hold cycle not detected")
	}
	if cl.FalseDetections() != 0 {
		t.Fatalf("%d false detections", cl.FalseDetections())
	}
}

func TestNoDeadlockNoDetection(t *testing.T) {
	// Same lock order everywhere: two-phase locking with a global order
	// never deadlocks; the detector must stay silent and everything
	// must commit.
	cl := newCluster(t, ClusterOptions{Sites: 3, Resources: 6, Seed: 4})
	w := msg.LockWrite
	for i := 0; i < 9; i++ {
		// Strictly ascending resource order (no wrap-around): with a
		// global lock order no wait-for cycle can ever form.
		a := id.Resource(i % 5)
		b := a + 1
		mustSubmit(t, cl, TxnSpec{
			Txn:   id.Txn(i),
			Home:  id.Site(i % 3),
			Steps: []LockStep{{a, w}, {b, w}},
			Retry: false,
		})
	}
	run(t, cl)
	if len(cl.Detections) != 0 {
		t.Fatalf("got %d detections on an order-locked workload, want 0", len(cl.Detections))
	}
	if !cl.AllCommitted() {
		t.Fatal("not all transactions committed")
	}
}

func TestResolutionRestoresLiveness(t *testing.T) {
	// With Resolve on and Retry on, a deadlocking pair must both
	// eventually commit (victim aborts, retries after backoff).
	cl := newCluster(t, ClusterOptions{Sites: 2, Resources: 2, Seed: 5, Resolve: true, HoldTime: int64(sim.Millisecond)})
	w := msg.LockWrite
	mustSubmit(t, cl, TxnSpec{Txn: 0, Home: 0, Steps: []LockStep{{0, w}, {1, w}}, Retry: true})
	mustSubmit(t, cl, TxnSpec{Txn: 1, Home: 1, Steps: []LockStep{{1, w}, {0, w}}, Retry: true})
	run(t, cl)
	if !cl.AllCommitted() {
		t.Fatalf("deadlocked pair did not both commit (commits=%d, aborts=%d, detections=%d)",
			cl.CommittedCount(), cl.Aborts(), len(cl.Detections))
	}
	if cl.Aborts() == 0 {
		t.Fatal("expected at least one abort to break the deadlock")
	}
}

func TestRandomMixLivenessAndSafety(t *testing.T) {
	// The end-to-end randomized test: many transactions, random scripts
	// with random lock order, detection + resolution on. Every
	// transaction must commit eventually; in detection-only companion
	// runs (TestRandomMixDetectionOnly) declarations are oracle-checked.
	for _, seed := range []int64{11, 12, 13, 14, 15} {
		rng := rand.New(rand.NewSource(seed))
		specs := GenerateSpecs(24, 12, 4, 3, 0.8, 0.4, rng)
		cl := newCluster(t, ClusterOptions{
			Sites: 4, Resources: 12, Seed: seed, Resolve: true,
			HoldTime: int64(500 * sim.Microsecond),
			Delay:    int64(2 * sim.Millisecond),
		})
		for _, s := range specs {
			mustSubmit(t, cl, s)
		}
		run(t, cl)
		if !cl.AllCommitted() {
			t.Fatalf("seed %d: %d/%d committed, %d aborts, %d detections",
				seed, cl.CommittedCount(), len(specs), cl.Aborts(), len(cl.Detections))
		}
		if v := cl.FIFO.Violations(); v != 0 {
			t.Fatalf("seed %d: %d FIFO violations", seed, v)
		}
	}
}

func TestRandomMixDetectionOnly(t *testing.T) {
	// Without resolution, every declaration must be oracle-true at the
	// instant of declaration (QRP2 carried to the DDB model), and every
	// oracle deadlock must eventually be declared by someone.
	for _, seed := range []int64{21, 22, 23} {
		rng := rand.New(rand.NewSource(seed))
		specs := GenerateSpecs(16, 8, 4, 3, 1.0, 0.3, rng)
		cl := newCluster(t, ClusterOptions{
			Sites: 4, Resources: 8, Seed: seed, Resolve: false,
			HoldTime: int64(500 * sim.Microsecond),
			Delay:    int64(2 * sim.Millisecond),
		})
		for _, s := range specs {
			s.Retry = false
			mustSubmit(t, cl, s)
		}
		run(t, cl)
		if fp := cl.FalseDetections(); fp != 0 {
			t.Fatalf("seed %d: %d false detections", seed, fp)
		}
		deadTxns := cl.Oracle.DeadlockedTxns()
		if len(deadTxns) == 0 {
			continue // this seed produced no deadlock; nothing to check
		}
		// Completeness: at least one agent of the deadlocked set was
		// declared (the victim that would be aborted).
		declared := make(map[id.Txn]bool)
		for _, d := range cl.Detections {
			declared[d.Target.Txn] = true
		}
		any := false
		for _, txn := range deadTxns {
			if declared[txn] {
				any = true
			}
		}
		if !any {
			t.Fatalf("seed %d: oracle deadlock %v but no declaration", seed, deadTxns)
		}
	}
}

func TestSharedReadLocksDoNotConflict(t *testing.T) {
	// Many readers of one resource commit concurrently without waits.
	cl := newCluster(t, ClusterOptions{Sites: 2, Resources: 2, Seed: 6})
	for i := 0; i < 6; i++ {
		mustSubmit(t, cl, TxnSpec{
			Txn:   id.Txn(i),
			Home:  id.Site(i % 2),
			Steps: []LockStep{{0, msg.LockRead}, {1, msg.LockRead}},
		})
	}
	run(t, cl)
	if !cl.AllCommitted() {
		t.Fatal("readers did not all commit")
	}
	if len(cl.Detections) != 0 {
		t.Fatalf("readers triggered %d detections", len(cl.Detections))
	}
}

func TestCheckAllCountsQ(t *testing.T) {
	// §6.7: Q = processes with incoming black inter-controller edges.
	// Build the canonical two-site deadlock with Manual mode, then ask
	// each controller to CheckAll: each site hosts exactly one remote
	// agent with a pending acquisition, so Q must be 1 at each.
	cl := newCluster(t, ClusterOptions{Sites: 2, Resources: 2, Seed: 7, Mode: InitiateManual, HoldTime: int64(sim.Second)})
	w := msg.LockWrite
	mustSubmit(t, cl, TxnSpec{Txn: 0, Home: 0, Steps: []LockStep{{0, w}, {1, w}}})
	mustSubmit(t, cl, TxnSpec{Txn: 1, Home: 1, Steps: []LockStep{{1, w}, {0, w}}})
	run(t, cl) // reach the blocked state
	q0 := cl.Controllers[0].CheckAll()
	q1 := cl.Controllers[1].CheckAll()
	if q0 != 1 || q1 != 1 {
		t.Fatalf("Q = (%d, %d), want (1, 1)", q0, q1)
	}
	run(t, cl) // let the probes circulate
	if len(cl.Detections) == 0 {
		t.Fatal("CheckAll computations did not detect the cycle")
	}
	if cl.FalseDetections() != 0 {
		t.Fatalf("%d false detections", cl.FalseDetections())
	}
}

func TestIncarnationShieldsRetries(t *testing.T) {
	// Stress abort/retry: a 3-way deadlock with resolution; stale
	// grants and releases across incarnations must not corrupt state
	// (the engine panics on protocol violations, so completion is the
	// assertion).
	cl := newCluster(t, ClusterOptions{Sites: 3, Resources: 3, Seed: 8, Resolve: true, HoldTime: int64(sim.Millisecond)})
	w := msg.LockWrite
	mustSubmit(t, cl, TxnSpec{Txn: 0, Home: 0, Steps: []LockStep{{0, w}, {1, w}}, Retry: true})
	mustSubmit(t, cl, TxnSpec{Txn: 1, Home: 1, Steps: []LockStep{{1, w}, {2, w}}, Retry: true})
	mustSubmit(t, cl, TxnSpec{Txn: 2, Home: 2, Steps: []LockStep{{2, w}, {0, w}}, Retry: true})
	run(t, cl)
	if !cl.AllCommitted() {
		t.Fatalf("3-cycle with resolution did not fully commit (aborts=%d)", cl.Aborts())
	}
}

func TestOracleDOT(t *testing.T) {
	cl := newCluster(t, ClusterOptions{Sites: 2, Resources: 2, Seed: 44, HoldTime: int64(sim.Second)})
	w := msg.LockWrite
	mustSubmit(t, cl, TxnSpec{Txn: 0, Home: 0, Steps: []LockStep{{0, w}, {1, w}}})
	mustSubmit(t, cl, TxnSpec{Txn: 1, Home: 1, Steps: []LockStep{{1, w}, {0, w}}})
	run(t, cl)
	out := cl.Oracle.DOT()
	for _, want := range []string{
		"digraph ddbwaitfor",
		`subgraph cluster_0`,
		`"(T0,S0)" -> "(T0,S1)" [style=bold]`, // inter-controller edge
		`fillcolor="#ffdddd"`,                 // deadlocked highlight
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

func mustSubmit(t *testing.T, cl *Cluster, spec TxnSpec) {
	t.Helper()
	if err := cl.Submit(spec); err != nil {
		t.Fatalf("submit %v: %v", spec.Txn, err)
	}
}
