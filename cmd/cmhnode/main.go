// Command cmhnode runs one host of the basic-model protocol over real
// TCP: one listener, one sharded engine.Host, and the processes its
// placement puts here. The placement is one of three:
//
//   - identity (single-node mode, the default): this node is process
//     -id, its own host, wired to its peers by -peer and requesting the
//     processes in -request;
//   - static (host mode, -procs N > 1): processes 0..N-1 on host 1+id,
//     each requesting the next — a request ring, the canonical total
//     deadlock, on one host;
//   - gossip (cluster mode, -seed or -join): processes 1..N on the
//     consistent-hash ring over the live members of a gossip directory;
//     once -cluster-size hosts are alive each wires its share of the
//     same ring. No -peer, no per-pair wiring.
//
// With -initiate the system's first process starts a probe computation
// wherever it runs, and again on every 100 ms tick while it is blocked
// and undeclared: a probe that reaches a peer before the peer wired its
// own edge is rightly discarded, and §4.3 allows any number of
// computations. A three-node demo on one machine (replies and the §5
// WFGD messages flow backward, so ring neighbours need each other's
// addresses both ways):
//
//	cmhnode -id 0 -listen 127.0.0.1:7100 -peer 1=127.0.0.1:7101,2=127.0.0.1:7102 -request 1 -initiate &
//	cmhnode -id 1 -listen 127.0.0.1:7101 -peer 2=127.0.0.1:7102,0=127.0.0.1:7100 -request 2 &
//	cmhnode -id 2 -listen 127.0.0.1:7102 -peer 0=127.0.0.1:7100,1=127.0.0.1:7101 -request 0 &
//
// A node runs until a verdict (a declaration, or the WFGD computation
// informing one of its processes), a signal, or -timeout. A node that
// started a probe computation and has no verdict by -timeout exits 1;
// every other exit is 0. Host mode without -initiate wires its ring and
// exits at once: every process is on it, so nothing could bring a
// verdict.
//
// Peers may start in any order and crash and restart mid-run. Links
// dial with exponential backoff (-retry-base doubling to -retry-max)
// and report a failure after -dial-timeout, but never drop a queued
// frame: silent loss would violate the delivery axiom (P4). Frames are
// sequence-numbered and replayed on reconnect, the receiver discarding
// duplicates, so per-pair FIFO holds across reconnects.
//
// -lease-interval arms the lease failure detector in every mode: a host
// silent for -lease-interval × -lease-misses is declared down, and the
// verdict goes to every process the placement puts on it. Waits on them
// become typed WaitAborted outcomes (printed, counted, and the node
// exits if nothing here is blocked any more); when the host answers
// again, outstanding waits are re-announced. -fault-plan arms a
// wall-clock connection-drop storm (e.g. 'drop@2s; drop@5s').
//
// -wal-dir (host or cluster mode) journals every sequenced delivery
// write-ahead and checkpoints every -checkpoint-interval and at exit
// (DESIGN.md §11). A host-mode restart resumes from the newest
// checkpoint; cluster mode refuses a directory that holds one, because
// a rejoining host gets a fresh ring placement. SIGINT or SIGTERM shuts
// down gracefully: a cluster host gossips its leave first, then writes
// are flushed, and the final state, checkpoint and counters printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cmhnode:", err)
		os.Exit(1)
	}
}

// placement says where the system's processes live.
type placement int

const (
	identity placement = iota // every process is its own host
	static                    // processes 0..procs-1 on host 1+id
	gossip                    // processes 1..procs on the directory's ring
)

func (p placement) String() string {
	return [...]string{"single-node mode", "host mode (-procs > 1)", "cluster mode (-seed/-join)"}[p]
}

// node is one cmhnode as data: the flags, and what they describe — the
// placement, the local host, the system's processes first..first+count-1
// and what each requests. run fills it in and assemble runs it.
type node struct {
	id, procs, shards, maxBatch, leaseMisses, clusterSize int
	listen, peers, request, join, faultPlan, walDir       string
	initiate, seed, verbose, netStats                     bool
	timeout, settle, dialTimeout, retryBase, retryMax     time.Duration
	leaseEvery, gossipEvery, ckptEvery                    time.Duration
	sync                                                  wal.SyncPolicy

	place    placement
	name     string           // the prefix of every line printed: "node 0" or "host 1"
	host     transport.NodeID // the local host id, which names its listener
	first    transport.NodeID
	count    int
	addrs    map[transport.NodeID]string // identity: the -peer hosts; gossip: the -join members
	targets  []id.Proc                   // identity: -request; otherwise the ring
	resolver transport.PlacementResolver // nil under identity placement
}

func run(args []string, out io.Writer) error {
	n := &node{}
	fs := flag.NewFlagSet("cmhnode", flag.ContinueOnError)
	fs.IntVar(&n.id, "id", 0, "this node's process id (single-node mode) or host index (the host is 1+id)")
	fs.StringVar(&n.listen, "listen", "127.0.0.1:0", "listen address")
	fs.StringVar(&n.peers, "peer", "", "single-node mode: comma-separated peers, id=host:port")
	fs.StringVar(&n.request, "request", "", "single-node mode: comma-separated process ids to request (AND-wait)")
	fs.BoolVar(&n.initiate, "initiate", false, "start a probe computation from the system's first process, if it runs here")
	fs.DurationVar(&n.timeout, "timeout", 30*time.Second, "how long to wait for a verdict")
	fs.DurationVar(&n.settle, "settle", 500*time.Millisecond, "wait for peers before requesting")
	fs.DurationVar(&n.dialTimeout, "dial-timeout", 15*time.Second, "how long a link retries dialing silently before reporting (retries continue)")
	fs.DurationVar(&n.retryBase, "retry-base", 50*time.Millisecond, "initial dial backoff, doubled per failed attempt")
	fs.DurationVar(&n.retryMax, "retry-max", 2*time.Second, "dial backoff cap")
	fs.IntVar(&n.maxBatch, "max-batch", 64, "max envelopes coalesced into one wire flush (1 = flush per frame)")
	fs.BoolVar(&n.verbose, "verbose", false, "print connection-lifecycle and cluster events")
	fs.BoolVar(&n.netStats, "net-stats", false, "print transport counters before exiting")
	fs.DurationVar(&n.leaseEvery, "lease-interval", 0, "heartbeat interval for the lease-based failure detector (0 = disabled)")
	fs.IntVar(&n.leaseMisses, "lease-misses", 0, "missed intervals before a host is declared down (0 = transport default)")
	fs.StringVar(&n.faultPlan, "fault-plan", "", "faultinject drop-storm schedule applied to this node's connections, e.g. 'drop@2s; drop@5s'")
	fs.IntVar(&n.procs, "procs", 1, "processes in the system (>1 without -seed/-join switches to host mode: all of them on this host)")
	fs.IntVar(&n.shards, "shards", 4, "single-writer shards of the host runtime")
	fs.BoolVar(&n.seed, "seed", false, "cluster mode: bootstrap a new cluster as its seed host")
	fs.StringVar(&n.join, "join", "", "cluster mode: join an existing cluster through these members, host=addr[,host=addr...] (host@addr also accepted)")
	fs.IntVar(&n.clusterSize, "cluster-size", 1, "cluster mode: hosts to wait for before placing processes on the ring")
	fs.DurationVar(&n.gossipEvery, "gossip-interval", 100*time.Millisecond, "cluster mode: membership gossip cadence")
	fs.StringVar(&n.walDir, "wal-dir", "", "checkpoint + write-ahead log directory (host or cluster mode; empty = durability off)")
	fs.DurationVar(&n.ckptEvery, "checkpoint-interval", 2*time.Second, "periodic checkpoint cadence when -wal-dir is set (0 = final checkpoint only)")
	fsyncMode := fs.String("fsync", "always", "WAL fsync policy: always, interval, or never")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	if n.sync, err = wal.ParseSyncPolicy(*fsyncMode); err != nil {
		return fmt.Errorf("-fsync: %w", err)
	}
	switch {
	case n.seed && n.join != "":
		return fmt.Errorf("-seed and -join are mutually exclusive: a node either bootstraps the cluster or joins one")
	case n.seed || n.join != "":
		n.place = gossip
	case n.procs > 1:
		n.place = static
	}
	// The role flags describe one placement's topology: set in another,
	// they would be silently ignored.
	roles := map[string]placement{"peer": identity, "request": identity, "cluster-size": gossip, "gossip-interval": gossip}
	fs.Visit(func(f *flag.Flag) {
		if p, ok := roles[f.Name]; ok && p != n.place && err == nil {
			err = fmt.Errorf("-%s applies to %v only, not %v", f.Name, p, n.place)
		}
	})
	if err != nil {
		return err
	}
	if n.id < 0 {
		return fmt.Errorf("-id must be >= 0")
	}
	// The placement's data: its local host, its processes and their
	// requests, and the addresses the flags name.
	n.name, n.host, n.first, n.count = fmt.Sprintf("host %d", 1+n.id), transport.NodeID(1+n.id), 0, n.procs
	switch n.place {
	case identity:
		if n.walDir != "" {
			return fmt.Errorf("-wal-dir requires host mode (-procs > 1) or cluster mode (-seed/-join): checkpoints and the delivery log belong to the sharded engine.Host")
		}
		n.name, n.host, n.first, n.count = fmt.Sprintf("node %d", n.id), transport.NodeID(n.id), transport.NodeID(n.id), 1
		if n.addrs, err = parseAddrs("peer", n.peers, 0); err != nil {
			return err
		}
		for _, s := range fields(n.request) {
			v, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("bad -request id %q: %v", s, err)
			}
			n.targets = append(n.targets, id.Proc(v))
		}
	case gossip:
		if n.procs < 1 {
			return fmt.Errorf("cluster mode: -procs must be >= 1")
		}
		n.first = 1 // the wire reserves non-positive ids for control-plane endpoints
		if n.addrs, err = parseAddrs("join", n.join, 1); err != nil {
			return err
		}
	}
	return n.assemble(out)
}

// parseAddrs parses a comma-separated list of id=addr (or id@addr)
// entries, every id at least min: host ids are positive, because the
// wire reserves non-positive ids for control-plane endpoints.
func parseAddrs(flag, s string, min int) (map[transport.NodeID]string, error) {
	addrs := map[transport.NodeID]string{}
	for _, spec := range fields(s) {
		i := strings.IndexAny(spec, "=@")
		v, err := strconv.Atoi(spec[:max(i, 0)])
		if i < 0 || i == len(spec)-1 || err != nil || v < min {
			return nil, fmt.Errorf("bad -%s entry %q (want id=host:port with an integer id >= %d)", flag, spec, min)
		}
		addrs[transport.NodeID(v)] = spec[i+1:]
	}
	return addrs, nil
}

// fields splits a comma-separated flag value into its entries.
func fields(s string) []string { return strings.Fields(strings.ReplaceAll(s, ",", " ")) }

// procsOn returns the processes the placement puts on host h: the ones
// a lease verdict on h is about, and the ones to spawn on this host.
func (n *node) procsOn(h transport.NodeID) []transport.NodeID {
	if n.resolver == nil {
		return []transport.NodeID{h}
	}
	var ps []transport.NodeID
	for p := n.first; p < n.first+transport.NodeID(n.count); p++ {
		if owner, ok := n.resolver.HostOf(p); ok && owner == h {
			ps = append(ps, p)
		}
	}
	return ps
}

// requests returns what process p requests: the -request list, or its
// successor on the request ring.
func (n *node) requests(p id.Proc) []id.Proc {
	if n.place == identity || n.count < 2 {
		return n.targets
	}
	next := n.first + (transport.NodeID(p)-n.first+1)%transport.NodeID(n.count)
	return []id.Proc{id.Proc(next)}
}

// assemble builds the node's stack — TCP, listener, Host, optional WAL
// and cluster agent — places and wires its processes, and runs the
// verdict loop to one of its exits.
func (n *node) assemble(out io.Writer) error {
	say := func(format string, a ...any) { fmt.Fprintf(out, n.name+format+"\n", a...) }
	warn := func(format string, a ...any) { fmt.Fprintf(os.Stderr, "cmhnode "+n.name+": "+format+"\n", a...) }
	// host is assigned before ListenHost, so every transport goroutine
	// that can raise a lease verdict starts after it.
	var host *engine.Host
	live := trace.NewLiveness()
	net := transport.NewTCPWithOptions(transport.TCPOptions{
		DialTimeout:   n.dialTimeout,
		RetryBase:     n.retryBase,
		RetryMax:      n.retryMax,
		MaxBatch:      n.maxBatch,
		LeaseInterval: n.leaseEvery,
		LeaseMisses:   n.leaseMisses,
		OnError:       func(err error) { warn("transport: %v", err) },
		OnConnEvent: func(ev transport.ConnEvent) {
			live.Add(ev)
			// A lease verdict on a host is a verdict on every process
			// placed there: a peer-down severs the wait edges toward them
			// (typed WaitAborted, never a silent hang), a peer-up
			// re-announces any outstanding wait so a restarted
			// incarnation rebuilds its dependent set.
			switch ev.Kind {
			case transport.ConnPeerDown:
				for _, p := range n.procsOn(ev.To) {
					host.PeerDown(p)
				}
			case transport.ConnPeerUp:
				for _, p := range n.procsOn(ev.To) {
					host.PeerUp(p, true)
				}
			}
			if n.verbose {
				warn("conn: %v", ev)
			}
		},
	})
	defer net.Close()
	var shardOf func(transport.NodeID) int
	var dir *cluster.Directory
	switch n.place {
	case static:
		hosts := make(map[transport.NodeID]transport.NodeID, n.count)
		for p := 0; p < n.count; p++ {
			hosts[transport.NodeID(p)] = n.host
		}
		n.resolver = transport.StaticPlacement{Hosts: hosts}
		net.SetResolver(n.resolver)
	case identity:
		for h, addr := range n.addrs {
			net.SetPeer(h, addr)
		}
	}
	if err := net.ListenHost(n.host, n.listen); err != nil {
		return err
	}
	if n.place == gossip {
		dir = cluster.NewDirectory(n.host, net.HostAddr(n.host), 1)
		n.resolver = dir
		net.SetResolver(dir)
		shardOf = func(p transport.NodeID) int { return cluster.ShardIndex(p, n.shards) }
	}
	host = engine.NewHost(engine.Options{Shards: n.shards, Transport: net, HostID: n.host, ShardOf: shardOf})
	defer host.Close()
	say(" listening on %s (%v, %d shards, %d listener(s))", net.HostAddr(n.host), n.place, n.shards, net.ListenerCount())

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigC)

	detected := make(chan id.Tag, 1)
	aborted := make(chan struct{}, 1)
	var mu sync.Mutex
	var procs []*core.Process
	var initiator *core.Process // the system's first process, if -initiate and it runs here
	spawn := func(p transport.NodeID) {
		proc, err := core.NewProcess(core.Config{
			ID:         id.Proc(p),
			Transport:  host,
			Policy:     core.InitiateManually,
			OnDeadlock: func(tag id.Tag) { offer(detected, tag) },
			// Frames a conforming peer could never have sent are dropped
			// and reported, never fatal: a misbehaving peer cannot crash
			// the node.
			OnProtocolError: func(e core.ProtocolError) { warn("ingress: %v", e) },
			OnWaitAborted: func(wa core.WaitAborted) {
				say(": wait of %v on %v ABORTED (peer presumed down)", p, wa.Peer)
				offer(aborted, struct{}{})
			},
		})
		if err != nil {
			warn("spawn %v: %v", p, err)
			return
		}
		mu.Lock()
		procs = append(procs, proc)
		if n.initiate && p == n.first {
			initiator = proc
		}
		mu.Unlock()
	}
	place := func(spawn func(transport.NodeID)) {
		here := n.procsOn(n.host)
		for _, p := range here {
			spawn(p)
		}
		say(": placed %d of %d processes here", len(here), n.count)
	}
	// Identity and static placement are known now; the directory's ring
	// only once the membership has converged, below.
	if dir == nil {
		place(spawn)
	}

	var wlog *wal.Log
	var ckpt <-chan time.Time // the checkpoint ticker, nil without one
	resumed := false
	if n.walDir != "" {
		var err error
		if wlog, err = wal.Open(wal.Options{Dir: n.walDir, Sync: n.sync}); err != nil {
			return err
		}
		defer wlog.Close()
		host.AttachWAL(wlog, engine.DurabilityHooks{Incarnation: func() uint64 {
			inc, _ := net.Incarnation(n.host)
			return inc
		}})
		// Restore before serving traffic — it establishes the durability
		// generation even on a blank directory, and on a restart it loads
		// the newest checkpoint, replays the log tail, and primes the
		// transport's resequencer with the pre-crash incarnation.
		if err := net.SetDeliveryLog(n.host, host); err != nil {
			return err
		}
		st, err := host.Restore()
		switch {
		case err != nil:
			return err
		case st.Found && dir != nil:
			return fmt.Errorf("cluster mode needs a fresh -wal-dir: %s holds a checkpoint, and a rejoining host gets a fresh ring placement (restart resume is host-mode only)", n.walDir)
		case st.Found:
			if err := net.PrimeInbox(n.host, st.Inc, st.Cursors); err != nil {
				return err
			}
		}
		if err := host.FinishRestore(); err != nil {
			return err
		}
		resumed = st.Found
		say(": durable in %s (fsync=%v): resumed=%v snapshots=%d tail replayed=%d stale-gen dropped=%d gen=%d",
			n.walDir, n.sync, st.Found, st.SnapshotsRestored, st.TailReplayed, st.StaleGenDropped, st.Gen)
		if n.ckptEvery > 0 {
			tick := time.NewTicker(n.ckptEvery)
			defer tick.Stop()
			ckpt = tick.C
		}
	}

	if n.faultPlan != "" {
		plan, err := faultinject.Parse(n.faultPlan)
		stop := func() {}
		if err == nil {
			stop, err = faultinject.DriveTCP(net, plan)
		}
		if err != nil {
			return fmt.Errorf("-fault-plan: %w", err)
		}
		defer stop()
		say(" armed fault plan %q", plan)
	}
	var agent *cluster.Agent
	if dir != nil {
		var err error
		agent, err = cluster.New(cluster.Config{
			Host: n.host, TCP: net, Engine: host, Dir: dir, Spawn: spawn, GossipInterval: n.gossipEvery, Seed: int64(n.host),
			OnEvent: func(kind string, node, h transport.NodeID) {
				if n.verbose {
					warn("cluster: %s node=%d host=%d", kind, node, h)
				}
			},
		})
		if err != nil {
			return err
		}
		agent.Start()
		defer agent.Stop()
		var seeds []cluster.Member
		for h, addr := range n.addrs {
			seeds = append(seeds, cluster.Member{Host: h, Addr: addr})
		}
		agent.Join(seeds)
		// The ring is a pure function of the set of alive hosts, so once
		// this host sees -cluster-size alive members every converged host
		// computes the identical placement.
		deadline := time.Now().Add(n.timeout)
		for len(dir.AliveHosts()) < n.clusterSize {
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster mode: %d of %d hosts alive after %v", len(dir.AliveHosts()), n.clusterSize, n.timeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
		say(": membership converged: hosts %v", dir.AliveHosts())
		place(agent.SpawnLocal)
	}

	// Give the other hosts a moment to place their processes before
	// requests reach them: a frame for a process not registered yet is
	// dropped.
	time.Sleep(n.settle)
	mu.Lock()
	ps, starter := append([]*core.Process(nil), procs...), initiator
	mu.Unlock()

	// end is every exit's tail: the report, then the drains. The WFGD
	// frames that carry a verdict on to other hosts were sent in the step
	// that produced it and may still sit in a shard queue or a link's
	// write batch, and Close drops queued frames: without the two drains
	// the peers behind this host time out with no verdict. Then a final
	// checkpoint anchors the run's state, and the tables are printed. It
	// returns nil: only an initiator's timeout exits with an error.
	end := func(signalled bool, format string, a ...any) error {
		say(format, a...)
		host.Drain()
		if !net.Drain(2 * time.Second) {
			say(": drain incomplete after 2s (peer unreachable); queued frames abandoned with the process")
		}
		if wlog != nil {
			if err := host.Checkpoint(); err != nil {
				warn("final checkpoint: %v", err)
			} else {
				say(": final checkpoint written (seq=%d)", wlog.Stats().LastCheckpointSeq)
			}
			fmt.Fprint(out, durabilityTable(host, wlog))
		}
		if n.netStats || signalled {
			fmt.Fprint(out, metrics.TCPStatsTable(net.Stats()))
		}
		return nil
	}

	if resumed {
		say(": request ring restored from checkpoint (%d local processes)", len(ps))
		// A restored snapshot can already carry the verdict: if the crash
		// landed after a process declared, re-initiating is a no-op for it
		// and OnDeadlock never fires again.
		for _, p := range ps {
			if tag, ok := p.Deadlocked(); ok {
				return end(false, ": DEADLOCK (restored): declared pre-crash by computation %v", tag)
			}
		}
	} else {
		edges := 0
		for _, p := range ps {
			if t := n.requests(p.ID()); len(t) > 0 {
				if err := p.Request(t...); err != nil {
					return err
				}
				edges++
				if n.place == identity {
					say(" requested %v and is blocked", t)
				}
			}
		}
		if n.place != identity && edges > 0 {
			say(": request ring of %d processes wired (%d request-ring edges here)", n.count, edges)
		}
	}
	if n.place == static && !n.initiate {
		// Every process of the system is here: without an initiator
		// nothing can ever bring a verdict.
		host.Drain()
		st := host.Stats()
		return end(false, ": idle (intra-host sends=%d, batches=%d, max batch=%d); pass -initiate to detect",
			st.IntraSends, st.Batches, st.MaxBatch)
	}

	var start time.Time // of the first probe computation; zero until one starts
	probe := func() {
		if starter == nil {
			return
		}
		if _, declared := starter.Deadlocked(); !declared {
			if tag, ok := starter.StartProbe(); ok && start.IsZero() { // a no-op unless blocked
				start = time.Now()
				say(" initiated probe computation %v", tag)
			}
		}
	}
	probe()

	deadline := time.After(n.timeout)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case tag := <-detected:
			st := host.Stats()
			say(": DEADLOCK detected by computation %v in %v", tag, time.Since(start).Round(time.Microsecond))
			return end(false, ": intra-host sends=%d remote sends=%d batches=%d max batch=%d",
				st.IntraSends, st.RemoteSends, st.Batches, st.MaxBatch)
		case <-tick.C:
			if len(detected) > 0 {
				continue // the declaration is reported, not the edges it informs
			}
			for _, p := range ps {
				if edges := p.BlackPaths(); len(edges) > 0 {
					return end(false, ": informed of deadlocked edges %v", edges)
				}
			}
			probe()
		case <-ckpt:
			if err := host.Checkpoint(); err != nil {
				warn("checkpoint: %v", err)
			}
		case <-aborted:
			// A presumed-dead host's wait edge was severed. If nothing here
			// is blocked any more, there is no verdict left to wait on.
			if blocked, _, st := summary(ps); !blocked {
				return end(false, ": unblocked by peer failure; nothing left to wait for (waits aborted=%d)", st.WaitsAborted)
			}
		case <-deadline:
			blocked, _, st := summary(ps)
			end(false, ": no verdict after %v (blocked=%v, probes sent=%d meaningful=%d, rejected frames=%d, waits aborted=%d)",
				n.timeout, blocked, st.ProbesSent, st.ProbesMeaningful, st.ProtocolErrors, st.WaitsAborted)
			if !start.IsZero() {
				return fmt.Errorf("%s: no verdict after %v for the probe computation it started", n.name, n.timeout)
			}
			return nil
		case sig := <-sigC:
			say(": %v — draining and shutting down", sig)
			if agent != nil {
				// Leave before the final checkpoint: end flushes the
				// tombstone while the links are healthy, so peers see an
				// explicit leave (immediate rebalance) instead of waiting
				// out a lease on a host that is provably gone.
				agent.Leave()
				say(": left the member map (tombstone gossiped)")
			}
			if down := live.Down(); len(down) > 0 {
				say(": hosts still suspected down: %v", down)
			}
			blocked, declared, st := summary(ps)
			return end(true, ": final state blocked=%v declared=%v waits aborted=%d", blocked, declared, st.WaitsAborted)
		}
	}
}

// offer sends v on c unless c is full: the verdict loop needs to learn
// that something happened, not how often.
func offer[T any](c chan T, v T) {
	select {
	case c <- v:
	default:
	}
}

// summary reports whether any of ps is blocked or has declared, and
// their summed counters.
func summary(ps []*core.Process) (blocked, declared bool, sum core.Stats) {
	for _, p := range ps {
		blocked = blocked || p.Blocked()
		_, d := p.Deadlocked()
		declared = declared || d
		st := p.Stats()
		sum.ProbesSent += st.ProbesSent
		sum.ProbesMeaningful += st.ProbesMeaningful
		sum.ProtocolErrors += st.ProtocolErrors
		sum.WaitsAborted += st.WaitsAborted
	}
	return blocked, declared, sum
}

// durabilityTable renders the Host's and the log's durability counters.
func durabilityTable(host *engine.Host, wlog *wal.Log) string {
	hs, ws := host.Stats(), wlog.Stats()
	return metrics.DurabilityStatsTable(metrics.DurabilityCounters{
		CheckpointsTaken:   hs.CheckpointsTaken,
		RecordsAppended:    hs.RecordsAppended,
		TailReplayed:       hs.TailReplayed,
		TornRecordsDropped: hs.TornRecordsDropped,
		StaleGenDropped:    hs.StaleGenDropped,
		MutedReplaySends:   hs.MutedReplaySends,
		WALErrors:          hs.WALErrors,
		LogRecords:         ws.Records,
		LogSegments:        ws.Segments,
		LogSyncs:           ws.Syncs,
		LogWrites:          ws.Writes,
		LastCheckpointSeq:  ws.LastCheckpointSeq,
	})
}
