package conformance

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/transport"
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
	d, err := newDriver(spec, nil)
	if err != nil {
		return "", err
	}
	if hosts < 2 {
		return "", fmt.Errorf("cluster run needs at least 2 hosts, got %d", hosts)
	}
	if shards < 1 {
		shards = 1
	}

	nodes := make([]*clusterNode, 0, hosts)
	defer func() {
		for _, n := range nodes {
			if n.agent != nil {
				n.agent.Stop()
			}
			n.eng.Close()
			n.tcp.Close()
		}
	}()
	for i := 0; i < hosts; i++ {
		h := transport.NodeID(i + 1)
		tcp := transport.NewTCP()
		if err := tcp.ListenHost(h, "127.0.0.1:0"); err != nil {
			tcp.Close()
			return "", err
		}
		dir := cluster.NewDirectory(h, tcp.HostAddr(h), 1)
		tcp.SetResolver(dir)
		eng := engine.NewHost(engine.Options{
			Shards:    shards,
			Transport: tcp,
			HostID:    h,
			ShardOf:   func(n transport.NodeID) int { return cluster.ShardIndex(n, shards) },
		})
		d.watch(eng)
		n := &clusterNode{host: h, tcp: tcp, dir: dir, eng: eng}
		nodes = append(nodes, n)
		// A migration's target spawns a fresh instance, which becomes
		// the current one (the old one is a dead shell whose engine
		// entry forwards).
		agent, err := cluster.New(cluster.Config{
			Host: h, TCP: tcp, Engine: eng, Dir: dir,
			Spawn: func(node transport.NodeID) {
				if err := d.spawn(int(node), eng); err != nil {
					panic(fmt.Sprintf("conformance: spawn %v on host %d: %v", node, h, err))
				}
			},
			// An hour: assembly and the migration must not wait on
			// the periodic round (pushes carry every change).
			GossipInterval: time.Hour,
			Seed:           spec.Seed + int64(h),
		})
		if err != nil {
			return "", err
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
		return "", fmt.Errorf("cluster did not converge: %w", err)
	}

	// Place every process where the (now shared) ring says it lives.
	byHost := map[transport.NodeID]*clusterNode{}
	for _, n := range nodes {
		byHost[n.host] = n
	}
	for i := 0; i < spec.N; i++ {
		owner, ok := nodes[0].dir.Lookup(transport.NodeID(i))
		if !ok {
			return "", fmt.Errorf("no owner for process %d", i)
		}
		byHost[owner].agent.SpawnLocal(transport.NodeID(i))
	}

	// Mid-run migration: move the lowest blocked process (its state —
	// request edges, engine — is maximally interesting) to the next
	// alive host. Wait until the route has committed on every host:
	// install, replay, and every flush round-trip are then provably
	// done, and the migrated object answers the probe phase.
	return d.run(hooks{swept: func() error {
		target := transport.NodeID(1)
		for i := 1; i < spec.N; i++ {
			if d.proc(i).Blocked() {
				target = transport.NodeID(i)
				break
			}
		}
		srcHost, _ := nodes[0].dir.Lookup(target)
		alive := nodes[0].dir.AliveHosts()
		var dest transport.NodeID
		for i, h := range alive {
			if h == srcHost {
				dest = alive[(i+1)%len(alive)]
			}
		}
		if err := byHost[srcHost].agent.Migrate(target, dest); err != nil {
			return fmt.Errorf("migrate %d from %d to %d: %w", target, srcHost, dest, err)
		}
		if err := pollUntil(15*time.Second, func() bool {
			for _, n := range nodes {
				if n.dir.RouteVer(target) != 1 {
					return false
				}
			}
			return byHost[dest].agent.Hosted(target)
		}); err != nil {
			return fmt.Errorf("migration of %d did not complete: %w", target, err)
		}
		return d.settle("migration")
	}})
}
