package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// testHost is one full cluster node: transport, directory, engine,
// agent, plus the test's registry of spawned process objects.
type testHost struct {
	host  transport.NodeID
	tcp   *transport.TCP
	dir   *Directory
	eng   *engine.Host
	agent *Agent

	mu    sync.Mutex
	procs map[transport.NodeID]*recProc
}

// recProc is a migratable process: it records, per sender, the probe
// sequence numbers it has stepped, and carries that record through
// MarshalState/RestoreState — so a migration that loses, duplicates,
// or reorders a single frame is visible in the record.
type recProc struct {
	mu   sync.Mutex
	seen map[transport.NodeID][]uint64
}

func (p *recProc) HandleMessage(from transport.NodeID, m msg.Message) {
	pr, ok := msg.Deref(m).(msg.Probe)
	if !ok {
		return
	}
	p.mu.Lock()
	if p.seen == nil {
		p.seen = map[transport.NodeID][]uint64{}
	}
	p.seen[from] = append(p.seen[from], pr.Tag.N)
	p.mu.Unlock()
}

func (p *recProc) MarshalState() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := engine.NewSnapWriter(64)
	w.Len(len(p.seen))
	for from, ns := range p.seen {
		w.I32(int32(from))
		w.Len(len(ns))
		for _, n := range ns {
			w.U64(n)
		}
	}
	return w.Bytes()
}

func (p *recProc) RestoreState(b []byte) error {
	r := engine.NewSnapReader(b)
	seen := map[transport.NodeID][]uint64{}
	nf := r.Len()
	for i := 0; i < nf; i++ {
		from := transport.NodeID(r.I32())
		nn := r.Len()
		ns := make([]uint64, 0, nn)
		for j := 0; j < nn; j++ {
			ns = append(ns, r.U64())
		}
		seen[from] = ns
	}
	if err := r.Err(); err != nil {
		return err
	}
	p.mu.Lock()
	p.seen = seen
	p.mu.Unlock()
	return nil
}

func (p *recProc) snapshot() map[transport.NodeID][]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[transport.NodeID][]uint64{}
	for k, v := range p.seen {
		out[k] = append([]uint64(nil), v...)
	}
	return out
}

// newTestHost boots one cluster node whose anti-entropy round runs
// every gossip. Tests that must not depend on the round pass time.Hour.
func newTestHost(t *testing.T, host transport.NodeID, gossip time.Duration) *testHost {
	t.Helper()
	th := &testHost{host: host, procs: map[transport.NodeID]*recProc{}}
	th.tcp = transport.NewTCP()
	if err := th.tcp.ListenHost(host, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	th.dir = NewDirectory(host, th.tcp.HostAddr(host), 1)
	th.tcp.SetResolver(th.dir)
	th.eng = engine.NewHost(engine.Options{
		Shards:    2,
		Transport: th.tcp,
		HostID:    host,
		ShardOf:   func(n transport.NodeID) int { return ShardIndex(n, 2) },
	})
	a, err := New(Config{
		Host: host, TCP: th.tcp, Engine: th.eng, Dir: th.dir,
		Spawn: func(node transport.NodeID) {
			p := &recProc{}
			th.mu.Lock()
			th.procs[node] = p
			th.mu.Unlock()
			th.eng.Register(node, p)
		},
		GossipInterval: gossip,
		Seed:           int64(host),
	})
	if err != nil {
		t.Fatal(err)
	}
	th.agent = a
	a.Start()
	return th
}

func (th *testHost) proc(node transport.NodeID) *recProc {
	th.mu.Lock()
	defer th.mu.Unlock()
	return th.procs[node]
}

func (th *testHost) close() {
	th.agent.Stop()
	th.eng.Close()
	th.tcp.Close()
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startCluster boots n hosts, joins 2..n through host 1 as the seed,
// and waits for convergence.
func startCluster(t *testing.T, n int, gossip time.Duration) []*testHost {
	t.Helper()
	hosts := make([]*testHost, n)
	for i := range hosts {
		hosts[i] = newTestHost(t, transport.NodeID(i+1), gossip)
	}
	joinSeed(hosts)
	waitFor(t, 10*time.Second, func() bool { return converged(hosts) }, "directory convergence")
	return hosts
}

// joinSeed joins hosts 2..n through host 1.
func joinSeed(hosts []*testHost) {
	seed := []Member{{Host: hosts[0].host, Addr: hosts[0].tcp.HostAddr(hosts[0].host)}}
	for _, th := range hosts[1:] {
		th.agent.Join(append([]Member(nil), seed...))
	}
}

// converged reports whether every directory holds the same full member
// set and every host has a link to every other.
func converged(hosts []*testHost) bool {
	fp := hosts[0].dir.Fingerprint()
	for _, th := range hosts {
		if th.dir.Fingerprint() != fp || th.tcp.LinkCount() != len(hosts)-1 {
			return false
		}
	}
	return len(hosts[0].dir.AliveHosts()) == len(hosts)
}

// syncCounter is a transport.Observer that counts the directory syncs
// sent through the transports it observes.
type syncCounter struct{ n atomic.Int64 }

func (c *syncCounter) OnSend(_, _ transport.NodeID, m msg.Message) {
	if cm, ok := m.(msg.Cluster); ok {
		if p, err := Decode(cm.Payload); err == nil {
			if _, ok := p.(Sync); ok {
				c.n.Add(1)
			}
		}
	}
}

func (c *syncCounter) OnDeliver(transport.NodeID, transport.NodeID, msg.Message) {}

// TestJoinConvergesWithoutGossipRound: with the periodic round an hour
// away, hosts that join through one seed still agree on the directory
// and hold a link to every peer within a few message delays, because
// every host push-pulls each member it learns of. The sync count bound
// is what a push storm would break: each ordered pair of hosts costs
// at most one push-pull and its reply, plus the joins.
func TestJoinConvergesWithoutGossipRound(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		t.Run(fmt.Sprintf("hosts=%d", n), func(t *testing.T) {
			var syncs syncCounter
			hosts := make([]*testHost, n)
			for i := range hosts {
				hosts[i] = newTestHost(t, transport.NodeID(i+1), time.Hour)
				defer hosts[i].close()
				hosts[i].tcp.Observe(&syncs)
			}
			began := time.Now()
			joinSeed(hosts)
			waitFor(t, time.Second, func() bool { return converged(hosts) }, "convergence without a gossip round")
			took := time.Since(began)

			// A storm keeps sending after convergence; give it room to.
			time.Sleep(50 * time.Millisecond)
			got, bound := syncs.n.Load(), int64(3*n*n)
			if got > bound {
				t.Fatalf("%d hosts sent %d syncs to converge, bound %d", n, got, bound)
			}
			t.Logf("%d hosts converged in %v with %d syncs", n, took, got)
		})
	}
}

// TestClusterMigrationFIFO is the acceptance test of satellite (c):
// senders on every host stream sequenced probes at one process while
// it live-migrates between hosts; afterwards every per-pair record
// must be exactly 1..K in order — zero lost, zero duplicated, zero
// reordered frames across the move.
func TestClusterMigrationFIFO(t *testing.T) {
	hosts := startCluster(t, 3, time.Hour)
	defer func() {
		for _, th := range hosts {
			th.close()
		}
	}()
	byID := map[transport.NodeID]*testHost{}
	for _, th := range hosts {
		byID[th.host] = th
	}

	// Place processes 1..30 where the (converged) ring says; find a
	// target owned by host 1 so the migration is 1 → 2.
	var target transport.NodeID
	owners := map[transport.NodeID]transport.NodeID{}
	for n := transport.NodeID(1); n <= 30; n++ {
		owner, ok := hosts[0].dir.Lookup(n)
		if !ok {
			t.Fatalf("no owner for node %d", n)
		}
		owners[n] = owner
		byID[owner].agent.SpawnLocal(n)
		if target == 0 && owner == 1 {
			target = n
		}
	}
	if target == 0 {
		t.Fatal("ring placed no node on host 1")
	}

	// One sender per host (not the target itself), each streaming
	// perPair sequenced probes from its own host's engine.
	const perPair = 400
	var senders []transport.NodeID
	chosen := map[transport.NodeID]bool{}
	for n := transport.NodeID(1); n <= 30; n++ {
		if n != target && !chosen[owners[n]] {
			chosen[owners[n]] = true
			senders = append(senders, n)
		}
	}
	if len(senders) != 3 {
		t.Fatalf("want one sender per host, got %v", senders)
	}

	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s transport.NodeID) {
			defer wg.Done()
			eng := byID[owners[s]].eng
			for k := uint64(1); k <= perPair; k++ {
				eng.Send(s, target, msg.Probe{Tag: id.Tag{Initiator: id.Proc(s), N: k}})
				if k%8 == 0 {
					time.Sleep(time.Millisecond) // keep the storm alive across the move
				}
			}
		}(s)
	}

	time.Sleep(5 * time.Millisecond) // let traffic flow on the old placement first
	if err := byID[1].agent.Migrate(target, 2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Completion: the route is committed everywhere and every frame has
	// been stepped on the new home.
	waitFor(t, 15*time.Second, func() bool {
		for _, th := range hosts {
			if th.dir.RouteVer(target) != 1 {
				return false
			}
		}
		p := byID[2].proc(target)
		if p == nil {
			return false
		}
		total := 0
		for _, ns := range p.snapshot() {
			total += len(ns)
		}
		return total == len(senders)*perPair
	}, "migration completion and full delivery")

	seen := byID[2].proc(target).snapshot()
	for _, s := range senders {
		ns := seen[s]
		if len(ns) != perPair {
			t.Fatalf("sender %d: %d frames delivered, want %d", s, len(ns), perPair)
		}
		for i, n := range ns {
			if n != uint64(i+1) {
				t.Fatalf("sender %d: frame %d has seq %d — lost/duplicated/reordered across the move", s, i, n)
			}
		}
	}

	srcStats, dstStats := byID[1].eng.Stats(), byID[2].eng.Stats()
	if srcStats.MigrationsOut != 1 || dstStats.MigrationsIn != 1 {
		t.Fatalf("migration counters: out=%d in=%d", srcStats.MigrationsOut, dstStats.MigrationsIn)
	}
	if dstStats.FramesReplayed+srcStats.FramesForwarded == 0 {
		t.Fatal("migration raced no traffic at all — the storm should have frames in flight at the cut")
	}
	if h, _ := hosts[2].dir.Lookup(target); h != 2 {
		t.Fatalf("third host resolves target to %d after commit, want 2", h)
	}
}

// TestClusterJoinLeave checks the membership half: a leave tombstone
// propagates, drops the host from every ring, and only that host's
// processes move. It is the one test on a short gossip interval, so it
// also checks the anti-entropy round: a change no push carries still
// spreads.
func TestClusterJoinLeave(t *testing.T) {
	hosts := startCluster(t, 3, 5*time.Millisecond)
	defer func() {
		for _, th := range hosts {
			th.close()
		}
	}()

	before := map[transport.NodeID]transport.NodeID{}
	for n := transport.NodeID(1); n <= 60; n++ {
		before[n], _ = hosts[0].dir.Lookup(n)
	}

	hosts[2].agent.Leave()
	waitFor(t, 10*time.Second, func() bool {
		for _, th := range hosts[:2] {
			alive := th.dir.AliveHosts()
			if len(alive) != 2 || alive[0] != 1 || alive[1] != 2 {
				return false
			}
		}
		return true
	}, "tombstone propagation")

	for _, th := range hosts[:2] {
		for n := transport.NodeID(1); n <= 60; n++ {
			h, ok := th.dir.Lookup(n)
			if !ok || h == 3 {
				t.Fatalf("host %d still places node %d on the departed host", th.host, n)
			}
			if before[n] != 3 && h != before[n] {
				t.Fatalf("node %d moved %d→%d though its host survived the leave", n, before[n], h)
			}
		}
	}

	// A tombstone merged straight into host 1's directory makes no host
	// alive, so no push carries it: only the periodic round can.
	hosts[0].dir.Merge([]Member{{Host: 9, Addr: "127.0.0.1:1", Inc: 1, Ver: 1, Status: StatusLeft}})
	waitFor(t, 10*time.Second, func() bool {
		return hosts[1].dir.Fingerprint() == hosts[0].dir.Fingerprint()
	}, "anti-entropy round")
}

// TestClusterPlacementAgreement: every converged host answers every
// lookup identically — the "any node addresses any process" contract.
func TestClusterPlacementAgreement(t *testing.T) {
	hosts := startCluster(t, 4, time.Hour)
	defer func() {
		for _, th := range hosts {
			th.close()
		}
	}()
	for n := transport.NodeID(1); n <= 200; n++ {
		want, ok := hosts[0].dir.Lookup(n)
		if !ok {
			t.Fatalf("no owner for %d", n)
		}
		for _, th := range hosts[1:] {
			if got, _ := th.dir.Lookup(n); got != want {
				t.Fatalf("node %d: host %d says %d, host 1 says %d (fp %x vs %x)",
					n, th.host, got, want, th.dir.Fingerprint(), hosts[0].dir.Fingerprint())
			}
		}
	}
	_ = fmt.Sprintf // keep fmt for failure paths only
}
