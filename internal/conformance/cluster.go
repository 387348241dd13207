package conformance

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wfg"
)

// clusterNode is one host of the self-assembling topology: its own TCP
// endpoint, directory, sharded engine, and control-plane agent.
type clusterNode struct {
	host  transport.NodeID
	tcp   *transport.TCP
	dir   *cluster.Directory
	eng   *engine.Host
	agent *cluster.Agent
}

// RunCluster replays the spec on the full cluster control plane: hosts
// K nodes join through a seed, gossip a shared member map, derive
// process placement from the consistent-hash ring (every route
// resolves through Directory.Lookup), and —
// mid-run, between the sweep and the probe phase — live-migrate one
// blocked process to another host, snapshot and in-flight frames
// included. The verdict must be byte-identical to every other
// runner's: placement and migration may never change what the
// algorithm concludes.
func RunCluster(spec Spec, hosts, shards int) (string, error) {
	if spec.N < 2 || spec.MaxBatch < 1 {
		return "", fmt.Errorf("spec needs N >= 2 and MaxBatch >= 1, got N=%d MaxBatch=%d", spec.N, spec.MaxBatch)
	}
	if hosts < 2 {
		return "", fmt.Errorf("cluster run needs at least 2 hosts, got %d", hosts)
	}
	if shards < 1 {
		shards = 1
	}

	counters := metrics.NewCounters()
	oracle := wfg.NewGraphObserver(nil)

	// procs tracks the CURRENT object for each process id: a migration
	// replaces the entry with the fresh instance spawned on the target
	// host (the old one is a dead shell whose engine entry forwards).
	var procMu sync.Mutex
	procs := make([]*core.Process, spec.N)
	current := func(pid id.Proc) *core.Process {
		procMu.Lock()
		defer procMu.Unlock()
		return procs[pid]
	}

	var gate atomic.Bool
	service := func(pid id.Proc) {
		if !gate.Load() {
			return
		}
		p := current(pid)
		if p.Blocked() {
			return
		}
		if _, err := p.GrantAll(); err != nil {
			panic(fmt.Sprintf("conformance: grant-all %v: %v", pid, err))
		}
	}

	nodes := make([]*clusterNode, hosts)
	var cleanupOnce sync.Once
	cleanup := func() {
		cleanupOnce.Do(func() {
			for _, n := range nodes {
				if n == nil {
					continue
				}
				if n.agent != nil {
					n.agent.Stop()
				}
				n.eng.Close()
				n.tcp.Close()
			}
		})
	}
	defer cleanup()
	fail := func(err error) (string, error) {
		cleanup()
		return "", err
	}
	for i := range nodes {
		h := transport.NodeID(i + 1)
		tcp := transport.NewTCP()
		if err := tcp.ListenHost(h, "127.0.0.1:0"); err != nil {
			tcp.Close()
			return fail(err)
		}
		dir := cluster.NewDirectory(h, tcp.HostAddr(h), 1)
		tcp.SetResolver(dir)
		eng := engine.NewHost(engine.Options{
			Shards:    shards,
			Transport: tcp,
			HostID:    h,
			ShardOf:   func(n transport.NodeID) int { return cluster.ShardIndex(n, shards) },
		})
		eng.Observe(counters)
		eng.Observe(oracle)
		n := &clusterNode{host: h, tcp: tcp, dir: dir, eng: eng}
		nodes[i] = n
		agent, err := cluster.New(cluster.Config{
			Host: h, TCP: tcp, Engine: eng, Dir: dir,
			Spawn: func(node transport.NodeID) {
				pid := id.Proc(node)
				p, perr := core.NewProcess(core.Config{
					ID:        pid,
					Transport: n.eng,
					Policy:    core.InitiateManually,
					OnRequest: func(id.Proc) { service(pid) },
					OnActive:  func() { service(pid) },
				})
				if perr != nil {
					panic(fmt.Sprintf("conformance: spawn %v on host %d: %v", pid, h, perr))
				}
				procMu.Lock()
				procs[pid] = p
				procMu.Unlock()
			},
			// An hour: assembly and the migration must not wait on
			// the periodic round (pushes carry every change).
			GossipInterval: time.Hour,
			Seed:           spec.Seed + int64(h),
		})
		if err != nil {
			return fail(err)
		}
		n.agent = agent
		agent.Start()
	}

	// Assemble: everyone joins through host 1, then the directories must
	// converge — same fingerprint means same member map, same ring, same
	// answer to every Lookup.
	seedMember := []cluster.Member{{Host: nodes[0].host, Addr: nodes[0].tcp.HostAddr(nodes[0].host)}}
	for _, n := range nodes[1:] {
		n.agent.Join(append([]cluster.Member(nil), seedMember...))
	}
	if err := pollUntil(10*time.Second, func() bool {
		fp := nodes[0].dir.Fingerprint()
		for _, n := range nodes[1:] {
			if n.dir.Fingerprint() != fp {
				return false
			}
		}
		return len(nodes[0].dir.AliveHosts()) == hosts
	}); err != nil {
		return fail(fmt.Errorf("cluster did not converge: %w", err))
	}

	// Place every process where the (now shared) ring says it lives.
	byHost := map[transport.NodeID]*clusterNode{}
	for _, n := range nodes {
		byHost[n.host] = n
	}
	for i := 0; i < spec.N; i++ {
		node := transport.NodeID(i)
		owner, ok := nodes[0].dir.Lookup(node)
		if !ok {
			return fail(fmt.Errorf("no owner for process %d", i))
		}
		byHost[owner].agent.SpawnLocal(node)
	}

	quiesce := pollQuiesce(counters)

	// Phase 1: the storm, grants gated off.
	for i, batch := range spec.Batches() {
		if len(batch) == 0 {
			continue
		}
		if err := current(id.Proc(i)).Request(batch...); err != nil {
			return fail(fmt.Errorf("storm: %w", err))
		}
	}
	if err := quiesce(); err != nil {
		return fail(fmt.Errorf("after storm: %w", err))
	}

	// Phase 2: open the gate and sweep to the fixed point.
	gate.Store(true)
	for i := 0; i < spec.N; i++ {
		if p := current(id.Proc(i)); !p.Blocked() {
			if _, err := p.GrantAll(); err != nil {
				return fail(fmt.Errorf("sweep: %w", err))
			}
		}
	}
	if err := quiesce(); err != nil {
		return fail(fmt.Errorf("after sweep: %w", err))
	}

	// Mid-run migration: move the lowest blocked process (its state —
	// request edges, engine — is maximally interesting) to the next
	// alive host. Wait until the route has committed on every host:
	// install, replay, and every flush round-trip are then provably
	// done, and the migrated object answers the probe phase.
	target := transport.NodeID(0)
	for i := 1; i < spec.N; i++ {
		if current(id.Proc(i)).Blocked() {
			target = transport.NodeID(i)
			break
		}
	}
	if target == 0 && spec.N > 1 {
		target = 1
	}
	if target != 0 {
		srcHost, _ := nodes[0].dir.Lookup(target)
		alive := nodes[0].dir.AliveHosts()
		var dest transport.NodeID
		for i, h := range alive {
			if h == srcHost {
				dest = alive[(i+1)%len(alive)]
			}
		}
		if err := byHost[srcHost].agent.Migrate(target, dest); err != nil {
			return fail(fmt.Errorf("migrate %d from %d to %d: %w", target, srcHost, dest, err))
		}
		if err := pollUntil(15*time.Second, func() bool {
			for _, n := range nodes {
				if n.dir.RouteVer(target) != 1 {
					return false
				}
			}
			return byHost[dest].agent.Hosted(target)
		}); err != nil {
			return fail(fmt.Errorf("migration of %d did not complete: %w", target, err))
		}
		if err := quiesce(); err != nil {
			return fail(fmt.Errorf("after migration: %w", err))
		}
	}

	// Phase 3: every permanently blocked process initiates detection.
	for i := 0; i < spec.N; i++ {
		if p := current(id.Proc(i)); p.Blocked() {
			p.StartProbe()
		}
	}
	if err := quiesce(); err != nil {
		return fail(fmt.Errorf("after probes: %w", err))
	}

	procMu.Lock()
	final := append([]*core.Process(nil), procs...)
	procMu.Unlock()
	v := verdict(final, oracle)
	if err := crossCheck(final, oracle); err != nil {
		return v, fmt.Errorf("oracle cross-check: %w", err)
	}
	return v, nil
}

// pollUntil polls cond at 2ms until it holds or the deadline expires.
func pollUntil(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", d)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
