package ddb

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/sim"
)

// windowedController drives site 0 of the wedged cluster through a
// seeded mix of probe computations: its own, past the window; three
// foreign initiators past theirs (1, 3 and 5), with tags out of order and some stale
// beyond the window; one initiator restarted (PeerUp) and numbering
// from 1 again under its old high entries (2); one restarted with no
// new computation yet, so it has computations but no latest entry (6);
// and one declared dead (7).
func windowedController(t *testing.T) *Controller {
	t.Helper()
	c := wedgedCluster(t, false).Controllers[0]
	for c.Stats().Computations <= compWindow+20 {
		if c.CheckAll() == 0 {
			t.Fatal("scenario premise broken: site 0 has no agent to initiate for")
		}
	}
	rng := rand.New(rand.NewSource(48))
	pos := map[id.Site]int{}
	foreign := func(s id.Site, rounds int) {
		for i := 0; i < rounds; i++ {
			pos[s] += rng.Intn(9)
			n := pos[s] + rng.Intn(12) - 6
			if rng.Intn(8) == 0 {
				n = pos[s] - compWindow - rng.Intn(40) // stale beyond the window
			}
			if n < 1 {
				n = 1
			}
			c.run.Exec(func() { c.compForStep(id.CtrlTag{Initiator: s, N: uint64(n)}) })
		}
	}
	foreign(1, 120)
	foreign(2, 110)
	foreign(5, 100)
	foreign(6, 90)
	foreign(7, 40)
	foreign(3, 80)
	c.PeerUp(2)
	pos[2] = 0
	foreign(2, 15)
	foreign(1, 10)
	c.PeerUp(6)
	c.PeerDown(7)
	// Tags of this site's own number space that it does not track.
	c.run.Exec(func() { c.compForStep(id.CtrlTag{Initiator: 0, N: 1}) })
	return c
}

// TestMarshalStateWindowsUnchanged pins the probe-computation table's
// checkpoint bytes and Snapshot fingerprint for a controller whose
// per-initiator windows have all been exercised, as written before the
// table was kept per initiator; a restored copy reproduces both.
func TestMarshalStateWindowsUnchanged(t *testing.T) {
	c := windowedController(t)
	golden := goldenStates(t, "state_v1_windows.hex")
	snap, err := os.ReadFile(filepath.Join("testdata", "snapshot_windows.txt"))
	if err != nil {
		t.Fatal(err)
	}
	blob := c.MarshalState()
	if !bytes.Equal(blob, golden[0]) {
		t.Fatalf("MarshalState differs from the version-1 golden\n got %x\nwant %x", blob, golden[0])
	}
	if got, want := c.Snapshot(), strings.TrimSuffix(string(snap), "\n"); got != want {
		t.Fatalf("Snapshot differs from the golden\n got %s\nwant %s", got, want)
	}
	fresh := newCluster(t, ClusterOptions{Sites: 3, Resources: 6, Seed: 33, HoldTime: int64(sim.Second)})
	r := fresh.Controllers[0]
	if err := r.RestoreState(golden[0]); err != nil {
		t.Fatal(err)
	}
	if got := r.MarshalState(); !bytes.Equal(got, golden[0]) {
		t.Fatal("restored golden re-marshals differently")
	}
	if got := r.Snapshot(); got != c.Snapshot() {
		t.Fatal("restored golden fingerprints differently")
	}
}

// windowModel is the §4.3 retention rule by brute force: computation
// (j, n) is kept while n >= latest_j - compWindow.
type windowModel struct {
	self   id.Site
	latest map[id.Site]uint64
	comps  map[[2]uint64]bool
}

func (m *windowModel) track(s id.Site, n uint64) {
	m.comps[[2]uint64{uint64(s), n}] = true
	if n > m.latest[s] {
		m.latest[s] = n
	}
	for k := range m.comps {
		if id.Site(k[0]) == s && k[1]+compWindow < m.latest[s] {
			delete(m.comps, k)
		}
	}
}

// probe is compForStep: a known computation stays, an unknown own one
// is superseded, an unknown foreign one is tracked unless stale.
func (m *windowModel) probe(s id.Site, n uint64) {
	if m.comps[[2]uint64{uint64(s), n}] || s == m.self || n+compWindow < m.latest[s] {
		return
	}
	m.track(s, n)
}

func (m *windowModel) peerDown(s id.Site) {
	for k := range m.comps {
		if id.Site(k[0]) == s {
			delete(m.comps, k)
		}
	}
	delete(m.latest, s)
}

// check compares the controller's windows with the model, and each
// window's eviction heap with its computations.
func (m *windowModel) check(t *testing.T, c *Controller, op string) {
	t.Helper()
	got := map[[2]uint64]bool{}
	latest := map[id.Site]uint64{}
	c.run.Exec(func() {
		for s, w := range c.windows {
			if len(w.order) != len(w.comps) {
				t.Fatalf("after %s: initiator %d heap holds %d keys for %d computations", op, s, len(w.order), len(w.comps))
			}
			for i, n := range w.order {
				if w.comps[n] == nil {
					t.Fatalf("after %s: initiator %d heap key %d is not tracked", op, s, n)
				}
				if i > 0 && w.order[(i-1)/2] > n {
					t.Fatalf("after %s: initiator %d heap out of order at %d", op, s, i)
				}
				got[[2]uint64{uint64(s), n}] = true
			}
			if w.latest > 0 {
				latest[s] = w.latest
			}
		}
	})
	if len(got) != len(m.comps) {
		t.Fatalf("after %s: %d computations retained, model keeps %d", op, len(got), len(m.comps))
	}
	for k := range m.comps {
		if !got[k] {
			t.Fatalf("after %s: computation %d.%d evicted, model keeps it", op, k[0], k[1])
		}
	}
	if len(latest) != len(m.latest) {
		t.Fatalf("after %s: latest table %v, model %v", op, latest, m.latest)
	}
	for s, l := range m.latest {
		if latest[s] != l {
			t.Fatalf("after %s: latest table %v, model %v", op, latest, m.latest)
		}
	}
}

// TestProbeWindowMatchesModel drives site 0 of the wedged cluster with
// seeded mixes of own computations and out-of-order foreign tags from
// four initiators (many stale beyond the window), PeerDown and PeerUp,
// and checkpoint round trips into a fresh controller, and compares the
// retained computations and latest table with the brute-force rule after
// every step.
func TestProbeWindowMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := wedgedCluster(t, false).Controllers[0]
		m := &windowModel{self: 0, latest: map[id.Site]uint64{}, comps: map[[2]uint64]bool{}}
		c.run.Exec(func() {
			for s, w := range c.windows {
				for n := range w.comps {
					m.comps[[2]uint64{uint64(s), n}] = true
				}
				if w.latest > 0 {
					m.latest[s] = w.latest
				}
			}
		})
		m.check(t, c, "setup")
		rng := rand.New(rand.NewSource(seed))
		pos := map[id.Site]int{}
		for i := 0; i < 3000; i++ {
			var op string
			switch k := rng.Intn(100); {
			case k < 75:
				// Sites 1 and 2 are live peers, 3 and 4 are not; 0 is
				// this controller's own number space.
				s := id.Site(rng.Intn(5))
				pos[s] += rng.Intn(6)
				n := pos[s] + 20 - rng.Intn(320)
				if n < 0 {
					n = -n
				}
				op = fmt.Sprintf("probe %d.%d", s, n)
				c.run.Exec(func() { c.compForStep(id.CtrlTag{Initiator: s, N: uint64(n)}) })
				m.probe(s, uint64(n))
			case k < 88:
				before := c.Stats().Computations
				var nextN uint64
				c.run.Exec(func() { nextN = c.nextN })
				c.CheckAll()
				for j := uint64(1); j <= c.Stats().Computations-before; j++ {
					m.track(0, nextN+j)
				}
				op = "CheckAll"
			case k < 92:
				// PeerDown of a live peer would abort site 0's wedged
				// transaction, leaving CheckAll nothing to initiate.
				s := id.Site(3 + rng.Intn(2))
				op = fmt.Sprintf("PeerDown %d", s)
				c.PeerDown(s)
				m.peerDown(s)
				pos[s] = 0
			case k < 97:
				s := id.Site(rng.Intn(5))
				op = fmt.Sprintf("PeerUp %d", s)
				c.PeerUp(s)
				if s != 0 {
					delete(m.latest, s)
					pos[s] = rng.Intn(10)
				}
			default:
				op = "checkpoint round trip"
				fresh := newCluster(t, ClusterOptions{Sites: 3, Resources: 6, Seed: 33, HoldTime: int64(sim.Second)})
				if err := fresh.Controllers[0].RestoreState(c.MarshalState()); err != nil {
					t.Fatal(err)
				}
				c = fresh.Controllers[0]
			}
			m.check(t, c, op)
		}
	}
}

// probeRig parks a remote agent in a wait a probe can traverse: T1 home
// S0 holds r0, and T0 home S1 waits for r0 at S0. A probe along
// (T0,S1)->(T0,S0) is meaningful at S0; its walk labels T0 and T1 and
// finds no inter-controller edge to forward along.
func probeRig(t *testing.T) (*Controller, func(n uint64)) {
	t.Helper()
	sched, ctrls := harness(t, 2)
	w := msg.LockWrite
	if err := ctrls[0].Submit(1, 0, []LockStep{{Resource: 0, Mode: w}}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.Time(10 * sim.Millisecond))
	if err := ctrls[1].Submit(0, 0, []LockStep{{Resource: 0, Mode: w}}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.Time(20 * sim.Millisecond))
	c := ctrls[0]
	m := &msg.CtrlProbe{Edge: id.AgentEdge{From: id.Agent{Txn: 0, Site: 1}, To: id.Agent{Txn: 0, Site: 0}}}
	return c, func(n uint64) {
		m.Tag = id.CtrlTag{Initiator: 1, N: n}
		c.Step(1, m)
	}
}

// TestProbeStepAllocGate: a probe step that opens a new foreign
// computation, walks two agents and forwards nothing allocates the
// computation, its labeled set (a map: two) and the newly-labeled list:
// 4. The walk's visited set and queue are the controller's scratch, it
// reads each resource's holders in place from the lock table, and the
// probed set is made only when a probe is sent. The step allocated 7
// while the walk copied every holder list into a successor list, and 9
// while each walk also made its own scratch and every computation both
// sets. The window is full, so every measured step also evicts.
func TestProbeStepAllocGate(t *testing.T) {
	c, probe := probeRig(t)
	n := uint64(0)
	for ; n < 2*compWindow; n++ { // fill the window: every later step evicts
		probe(n + 1)
	}
	if got := c.Stats().ProbesDropped; got != 0 {
		t.Fatalf("rig premise broken: %d probes dropped", got)
	}
	got := testing.AllocsPerRun(2000, func() { n++; probe(n) })
	t.Logf("%v allocs per probe step", got)
	if max := 4.0; got > max {
		t.Fatalf("%v allocs per probe step, want at most %v", got, max)
	}
}

// BenchmarkNewComputation times opening one new foreign computation
// (compForStep on an unseen tag): with empty windows, and with 48
// initiators' windows full, where every new tag evicts one entry.
func BenchmarkNewComputation(b *testing.B) {
	for _, bc := range []struct {
		name       string
		initiators int
		fill       uint64
	}{
		{"empty", 1, 0},
		{"48x256", 48, compWindow},
	} {
		b.Run(bc.name, func(b *testing.B) {
			_, ctrls := harness(b, 1)
			c := ctrls[0]
			next := make([]uint64, bc.initiators)
			for s := range next {
				for next[s] < bc.fill {
					next[s]++
					c.compForStep(id.CtrlTag{Initiator: id.Site(s + 1), N: next[s]})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := i % bc.initiators
				if bc.fill == 0 && next[s] == compWindow {
					// Keep the window empty of evictions: start over.
					b.StopTimer()
					c.peerDownStep(id.Site(s + 1))
					next[s] = 0
					b.StartTimer()
				}
				next[s]++
				c.compForStep(id.CtrlTag{Initiator: id.Site(s + 1), N: next[s]})
			}
		})
	}
}
