package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/id"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestRingTopologyShape(t *testing.T) {
	topo := Ring(5)
	if topo.N != 5 {
		t.Fatalf("N = %d", topo.N)
	}
	for i, targets := range topo.Targets {
		if len(targets) != 1 || targets[0] != id.Proc((i+1)%5) {
			t.Fatalf("ring targets[%d] = %v", i, targets)
		}
	}
}

func TestChainTopologyShape(t *testing.T) {
	topo := Chain(4)
	if len(topo.Targets[3]) != 0 {
		t.Fatal("chain tail should request nothing")
	}
	for i := 0; i < 3; i++ {
		if len(topo.Targets[i]) != 1 || topo.Targets[i][0] != id.Proc(i+1) {
			t.Fatalf("chain targets[%d] = %v", i, topo.Targets[i])
		}
	}
}

// TestRingWithTailsAllReachRing: every tail chain must terminate in the
// ring so that every process is permanently blocked once the ring is
// dark.
func TestRingWithTailsAllReachRing(t *testing.T) {
	prop := func(rRaw, tRaw uint8) bool {
		ringN := 2 + int(rRaw%10)
		tailN := int(tRaw % 10)
		topo := RingWithTails(ringN, tailN)
		if topo.N != ringN+tailN {
			return false
		}
		// Follow each tail's single outgoing target until the ring or a
		// repeat is found.
		for v := ringN; v < topo.N; v++ {
			cur := v
			for steps := 0; steps <= topo.N; steps++ {
				targets := topo.Targets[cur]
				if len(targets) != 1 {
					return false
				}
				next := int(targets[0])
				if next < ringN {
					cur = -1 // reached the ring
					break
				}
				cur = next
			}
			if cur != -1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRandomKOutDegreesAndNoSelf: every process has out-degree k (or
// n-1 if smaller) and never requests itself or duplicates.
func TestRandomKOutDegreesAndNoSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		k := 1 + rng.Intn(4)
		topo := RandomKOut(n, k, rng)
		wantDeg := k
		if wantDeg > n-1 {
			wantDeg = n - 1
		}
		for i, targets := range topo.Targets {
			if len(targets) != wantDeg {
				t.Fatalf("n=%d k=%d: degree[%d] = %d", n, k, i, len(targets))
			}
			seen := map[id.Proc]bool{}
			for _, tgt := range targets {
				if int(tgt) == i || seen[tgt] {
					t.Fatalf("self or duplicate target in %v", targets)
				}
				seen[tgt] = true
			}
		}
	}
}

func TestMultiRingShape(t *testing.T) {
	topo := MultiRing(3, 4)
	if topo.N != 12 {
		t.Fatalf("N = %d", topo.N)
	}
	// Each ring's targets stay within the ring.
	for v, targets := range topo.Targets {
		ring := v / 4
		if len(targets) != 1 {
			t.Fatalf("degree[%d] = %d", v, len(targets))
		}
		if int(targets[0])/4 != ring {
			t.Fatalf("edge %d->%v crosses rings", v, targets[0])
		}
	}
}

func TestTruthCheckOnRing(t *testing.T) {
	sys, err := NewBasicSystem(4, BasicOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Apply(Ring(4)); err != nil {
		t.Fatal(err)
	}
	sys.Run(1 << 20)
	counts := sys.TruthCheck()
	if counts.FP != 0 || counts.FN != 0 || counts.TP == 0 {
		t.Fatalf("truth check = %v", counts)
	}
	if len(sys.DetectedProcs()) == 0 {
		t.Fatal("no detected procs")
	}
}

func TestBasicSystemValidation(t *testing.T) {
	if _, err := NewBasicSystem(0, BasicOptions{}); err == nil {
		t.Fatal("n=0 accepted")
	}
	sys, err := NewBasicSystem(2, BasicOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Apply(Topology{N: 5, Targets: make([][]id.Proc, 5)}); err == nil {
		t.Fatal("oversized topology accepted")
	}
}

func TestChurnNeverDeadlocks(t *testing.T) {
	sys, err := NewBasicSystem(12, BasicOptions{Seed: 5, AutoGrant: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunChurn(sys, ChurnOptions{Horizon: sim.Time(200 * sim.Millisecond), Fanout: 2}); err != nil {
		t.Fatal(err)
	}
	sys.Run(1 << 24)
	if len(sys.Detections) != 0 {
		t.Fatalf("DAG churn produced %d detections", len(sys.Detections))
	}
	// Everything must unwind after the horizon.
	for i, p := range sys.Procs {
		if p.Blocked() {
			t.Fatalf("process %d still blocked after churn drain", i)
		}
	}
}

func TestChurnRequiresAutoGrant(t *testing.T) {
	sys, err := NewBasicSystem(4, BasicOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunChurn(sys, ChurnOptions{Horizon: 1}); err == nil {
		t.Fatal("churn without AutoGrant accepted")
	}
}

// TestBasicSystemSeedDeterminism runs one seed ten times and requires
// the same declarations and message counts every time. Under uniform
// latency each send draws its delay from the scheduler's RNG, so a
// process that fanned out in map order (probes, WFGD, GrantAll replies)
// would change the run from one execution to the next.
func TestBasicSystemSeedDeterminism(t *testing.T) {
	latency := transport.UniformLatency{Min: 100 * sim.Microsecond, Max: 2 * sim.Millisecond}
	run := func() string {
		// Two outgoing edges per process: probe and WFGD fan-out.
		dl, err := NewBasicSystem(16, BasicOptions{Seed: 4, Latency: latency})
		if err != nil {
			t.Fatal(err)
		}
		if err := dl.Apply(RandomKOut(16, 2, rand.New(rand.NewSource(4)))); err != nil {
			t.Fatal(err)
		}
		dl.Run(1 << 22)
		// Deadlock-free churn with two requests per batch: GrantAll.
		churn, err := NewBasicSystem(16, BasicOptions{Seed: 4, Latency: latency, AutoGrant: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := RunChurn(churn, ChurnOptions{Horizon: sim.Time(100 * sim.Millisecond), MeanThink: 2 * sim.Millisecond, Fanout: 2}); err != nil {
			t.Fatal(err)
		}
		churn.Run(1 << 22)
		return fmt.Sprint(dl.Detections, dl.Counters.Snapshot(), churn.Sched.Now(), churn.Counters.Snapshot())
	}
	want := run()
	for i := 1; i < 10; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i, got, want)
		}
	}
}
