// Command cmhnode runs ONE basic-model protocol participant over real
// TCP — the genuinely distributed deployment: start one cmhnode per
// machine (or terminal), point them at each other, and watch the probe
// computation detect a cross-node deadlock.
//
// A three-node demo on one machine. Every node lists the peers it
// talks to in either direction: requests and probes flow forward along
// wait-for edges, while replies and the §5 WFGD messages flow backward,
// so ring neighbours need each other's addresses both ways:
//
//	cmhnode -id 0 -listen 127.0.0.1:7100 -peer 1=127.0.0.1:7101,2=127.0.0.1:7102 -request 1 -initiate &
//	cmhnode -id 1 -listen 127.0.0.1:7101 -peer 2=127.0.0.1:7102,0=127.0.0.1:7100 -request 2 &
//	cmhnode -id 2 -listen 127.0.0.1:7102 -peer 0=127.0.0.1:7100,1=127.0.0.1:7101 -request 0 &
//
// Node 0 initiates a probe computation and prints the detection. Each
// node waits -timeout (default 30s) for a verdict, then reports its
// final state and exits.
//
// # Failure handling
//
// Peers may start in any order and may crash and restart mid-run. The
// transport dials each link with exponential backoff (-retry-base,
// doubling up to -retry-max); once attempts have failed for longer
// than -dial-timeout the failure is reported on stderr, but retries
// continue — queued messages are never dropped, because silent loss
// would violate the algorithm's delivery axiom (P4). Every frame
// written on a link is sequence-numbered and retained: when a dropped
// connection is re-dialed the link replays its history and the
// receiver discards duplicates by sequence number, so the
// per-ordered-pair FIFO guarantee the correctness proofs rely on
// holds across reconnects. A peer that restarts (losing its state)
// receives the full link history back, which re-establishes the
// incoming request edges its previous incarnation held. Transport
// errors (dial deadlines, read/write failures) are printed and never
// fatal; -verbose additionally prints each connection-lifecycle event.
// If a restarted peer comes back on a different address, the run
// lasts only as long as the deadlock wait, so re-point it with the
// same -peer syntax when restarting the node.
//
// # Failure detection and recovery
//
// -lease-interval arms the lease-based failure detector: heartbeats
// ride the envelope stream and a peer that stays silent for
// -lease-interval × -lease-misses is declared down. The node then
// converts its wait edges toward that peer into typed WaitAborted
// outcomes (printed, counted, and — if nothing else is being waited
// on — the node exits instead of hanging until -timeout). When a peer
// answers again, or comes back restarted under a fresh inbox
// incarnation, the node re-announces any still-outstanding wait so
// the new incarnation rebuilds its dependent set. -fault-plan arms a
// wall-clock connection-drop storm (e.g. 'drop@2s; drop@5s') against
// this node's own links for chaos demos; reconnect-and-replay makes
// the storm invisible to the protocol.
//
// SIGINT or SIGTERM shuts the node down gracefully: batched writes
// are flushed to every reachable peer, the final protocol state and
// transport counters are printed, and the links close cleanly.
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
	"repro/internal/msg"
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

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cmhnode", flag.ContinueOnError)
	var (
		idFlag   = fs.Int("id", 0, "this node's process id")
		listen   = fs.String("listen", "127.0.0.1:0", "listen address")
		peers    = fs.String("peer", "", "comma-separated peers, id=host:port")
		request  = fs.String("request", "", "comma-separated process ids to request (AND-wait)")
		initiate = fs.Bool("initiate", false, "start a probe computation after requesting")
		timeout  = fs.Duration("timeout", 30*time.Second, "how long to wait for a verdict")
		settle   = fs.Duration("settle", 500*time.Millisecond, "wait for peers before requesting")

		dialTimeout = fs.Duration("dial-timeout", 15*time.Second, "how long a link retries dialing silently before reporting (retries continue)")
		retryBase   = fs.Duration("retry-base", 50*time.Millisecond, "initial dial backoff, doubled per failed attempt")
		retryMax    = fs.Duration("retry-max", 2*time.Second, "dial backoff cap")
		maxBatch    = fs.Int("max-batch", 64, "max envelopes coalesced into one wire flush (1 = flush per frame)")
		codecName   = fs.String("codec", "binary", "wire codec: binary (DESIGN.md §9) or gob (legacy interop)")
		highWater   = fs.Int("mailbox-high-water", 0, "ingress mailbox depth that raises a backpressure event (0 = disabled)")
		verbose     = fs.Bool("verbose", false, "print connection-lifecycle events")
		showStats   = fs.Bool("net-stats", false, "print transport counters before exiting")

		leaseEvery  = fs.Duration("lease-interval", 0, "heartbeat interval for the lease-based failure detector (0 = disabled)")
		leaseMisses = fs.Int("lease-misses", 0, "missed intervals before a peer is declared down (0 = transport default)")
		faultPlan   = fs.String("fault-plan", "", "faultinject drop-storm schedule applied to this node's connections, e.g. 'drop@2s; drop@5s'")

		procs  = fs.Int("procs", 1, "processes to co-host on this node's sharded runtime (>1 switches to host mode: ONE listener for all of them)")
		shards = fs.Int("shards", 4, "single-writer shards of the host runtime (host mode only)")

		seedFlag    = fs.Bool("seed", false, "cluster mode: bootstrap a new cluster as its seed host")
		joinFlag    = fs.String("join", "", "cluster mode: join an existing cluster through these members, host=addr[,host=addr...] (host@addr also accepted)")
		clusterSize = fs.Int("cluster-size", 1, "cluster mode: hosts to wait for before placing processes on the ring")
		gossipEvery = fs.Duration("gossip-interval", 100*time.Millisecond, "cluster mode: membership gossip cadence")

		walDir    = fs.String("wal-dir", "", "checkpoint + write-ahead log directory (host mode only; empty = durability off)")
		ckptEvery = fs.Duration("checkpoint-interval", 2*time.Second, "periodic checkpoint cadence when -wal-dir is set (0 = final checkpoint only)")
		fsyncMode = fs.String("fsync", "always", "WAL fsync policy: always, interval, or never")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	codec, err := parseCodec(*codecName)
	if err != nil {
		return err
	}
	syncPolicy, err := wal.ParseSyncPolicy(*fsyncMode)
	if err != nil {
		return fmt.Errorf("-fsync: %w", err)
	}
	clusterMode := *seedFlag || *joinFlag != ""
	if *walDir != "" && *procs <= 1 && !clusterMode {
		return fmt.Errorf("-wal-dir requires host mode (-procs > 1) or cluster mode (-seed/-join): checkpoints and the delivery log belong to the sharded engine.Host")
	}
	if clusterMode {
		if *seedFlag && *joinFlag != "" {
			return fmt.Errorf("-seed and -join are mutually exclusive: a node either bootstraps the cluster or joins one")
		}
		return runClusterMode(out, clusterConfig{
			idFlag: *idFlag, listen: *listen, procs: *procs, shards: *shards,
			join: *joinFlag, size: *clusterSize, gossip: *gossipEvery,
			initiate: *initiate, timeout: *timeout, settle: *settle,
			maxBatch: *maxBatch, codec: codec, verbose: *verbose,
			walDir: *walDir, sync: syncPolicy,
		})
	}
	if *procs > 1 {
		return runHostMode(out, hostConfig{
			idFlag: *idFlag, listen: *listen, procs: *procs, shards: *shards,
			initiate: *initiate, timeout: *timeout, maxBatch: *maxBatch, codec: codec,
			walDir: *walDir, ckptEvery: *ckptEvery, sync: syncPolicy,
		})
	}
	self := id.Proc(*idFlag)

	// The wiring from transport liveness events to the process's
	// crash-recovery API: a peer-down verdict severs the wait edges
	// toward the suspected peer (typed WaitAborted, never a silent
	// hang), a peer-up re-announces any still-outstanding wait so a
	// restarted incarnation rebuilds its dependent set. The indirection
	// exists because the transport needs its options before the process
	// exists.
	wiring := &recoveryWiring{}
	live := trace.NewLiveness()

	opts := transport.TCPOptions{
		DialTimeout:      *dialTimeout,
		RetryBase:        *retryBase,
		RetryMax:         *retryMax,
		MaxBatch:         *maxBatch,
		Codec:            codec,
		MailboxHighWater: *highWater,
		LeaseInterval:    *leaseEvery,
		LeaseMisses:      *leaseMisses,
		OnError: func(err error) {
			fmt.Fprintf(os.Stderr, "cmhnode %v: transport: %v\n", self, err)
		},
		OnConnEvent: func(ev transport.ConnEvent) {
			live.Add(ev)
			wiring.onConnEvent(ev)
			if *verbose {
				fmt.Fprintf(os.Stderr, "cmhnode %v: conn: %v\n", self, ev)
			}
		},
	}
	net := transport.NewTCPWithOptions(opts)
	defer net.Close()
	if *showStats {
		defer func() { fmt.Fprint(out, metrics.TCPStatsTable(net.Stats())) }()
	}

	detected := make(chan id.Tag, 1)
	waitAborted := make(chan struct{}, 1)
	shim := &addrShim{tcp: net, addr: *listen}
	proc, err := core.NewProcess(core.Config{
		ID:        self,
		Transport: shim,
		Policy:    core.InitiateManually,
		OnDeadlock: func(tag id.Tag) {
			select {
			case detected <- tag:
			default:
			}
		},
		// Frames a conforming peer could never have sent are dropped and
		// reported, never fatal: a misbehaving peer cannot crash the node.
		OnProtocolError: func(e core.ProtocolError) {
			fmt.Fprintf(os.Stderr, "cmhnode %v: ingress: %v\n", self, e)
		},
		OnWaitAborted: func(wa core.WaitAborted) {
			fmt.Fprintf(out, "node %v: wait on %v ABORTED (peer presumed down)\n", self, wa.Peer)
			select {
			case waitAborted <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		return err
	}
	if shim.err != nil {
		return shim.err
	}
	wiring.set(proc)

	if *faultPlan != "" {
		plan, perr := faultinject.Parse(*faultPlan)
		if perr != nil {
			return fmt.Errorf("-fault-plan: %w", perr)
		}
		stop, derr := faultinject.DriveTCP(net, plan)
		if derr != nil {
			return fmt.Errorf("-fault-plan: %w", derr)
		}
		defer stop()
		fmt.Fprintf(out, "node %v armed fault plan %q\n", self, plan)
	}
	fmt.Fprintf(out, "node %v listening on %s\n", self, net.Addr(transport.NodeID(self)))

	if *peers != "" {
		for _, spec := range strings.Split(*peers, ",") {
			parts := strings.SplitN(strings.TrimSpace(spec), "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad -peer entry %q (want id=host:port)", spec)
			}
			pid, perr := strconv.Atoi(parts[0])
			if perr != nil {
				return fmt.Errorf("bad peer id in %q: %v", spec, perr)
			}
			net.SetPeer(transport.NodeID(pid), parts[1])
		}
	}

	// Give the other nodes a moment to come up before requesting.
	time.Sleep(*settle)

	if *request != "" {
		var targets []id.Proc
		for _, s := range strings.Split(*request, ",") {
			v, perr := strconv.Atoi(strings.TrimSpace(s))
			if perr != nil {
				return fmt.Errorf("bad -request id %q: %v", s, perr)
			}
			targets = append(targets, id.Proc(v))
		}
		if err := proc.Request(targets...); err != nil {
			return err
		}
		fmt.Fprintf(out, "node %v requested %v and is blocked\n", self, targets)
	}
	if *initiate {
		if tag, ok := proc.StartProbe(); ok {
			fmt.Fprintf(out, "node %v initiated probe computation %v\n", self, tag)
		}
	}

	// Wait for a verdict: our own declaration, the WFGD computation
	// informing us (checked by polling), the timeout, or an operator
	// shutdown signal.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigC)
	deadline := time.After(*timeout)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case tag := <-detected:
			fmt.Fprintf(out, "node %v: DEADLOCK detected by computation %v\n", self, tag)
			// Give the WFGD messages a moment, then report what we know.
			time.Sleep(200 * time.Millisecond)
			if edges := proc.BlackPaths(); len(edges) > 0 {
				fmt.Fprintf(out, "node %v: deadlocked edges %v\n", self, edges)
			}
			return nil
		case <-tick.C:
			if edges := proc.BlackPaths(); len(edges) > 0 {
				fmt.Fprintf(out, "node %v: informed of deadlocked edges %v\n", self, edges)
				return nil
			}
			if *initiate {
				reinitiate(proc)
			}
		case <-waitAborted:
			// A presumed-dead peer's wait edge was severed. If that was
			// the last thing this node was waiting for, there is no
			// verdict left to wait on either.
			if !proc.Blocked() {
				st := proc.Stats()
				fmt.Fprintf(out, "node %v: unblocked by peer failure; nothing left to wait for (waits aborted=%d)\n",
					self, st.WaitsAborted)
				return nil
			}
		case <-deadline:
			st := proc.Stats()
			fmt.Fprintf(out, "node %v: no verdict after %v (blocked=%v, probes sent=%d meaningful=%d, rejected frames=%d, waits aborted=%d)\n",
				self, *timeout, proc.Blocked(), st.ProbesSent, st.ProbesMeaningful, st.ProtocolErrors, st.WaitsAborted)
			return nil
		case sig := <-sigC:
			// Graceful shutdown: flush every batched write so no peer is
			// left waiting on a frame stuck in a coalescing buffer, report
			// the final state, and let the deferred Close tear the links
			// down cleanly.
			fmt.Fprintf(out, "node %v: %v — draining and shutting down\n", self, sig)
			if !net.Drain(2 * time.Second) {
				fmt.Fprintf(out, "node %v: drain incomplete after 2s (peer unreachable); queued frames abandoned with the process\n", self)
			}
			st := proc.Stats()
			fmt.Fprintf(out, "node %v: final state blocked=%v declared=%v waits aborted=%d\n",
				self, proc.Blocked(), func() bool { _, d := proc.Deadlocked(); return d }(), st.WaitsAborted)
			if down := live.Down(); len(down) > 0 {
				fmt.Fprintf(out, "node %v: peers still suspected down: %v\n", self, down)
			}
			fmt.Fprint(out, metrics.TCPStatsTable(net.Stats()))
			return nil
		}
	}
}

// reinitiate starts a fresh probe computation on the verdict loop's tick
// while p is blocked and has declared nothing. One StartProbe after
// -settle is not enough: a probe that reaches a peer before that peer
// has wired its own edge is rightly discarded as not meaningful, and
// nothing would ever probe again. §4.3 allows an initiator any number of
// computations; the superseded ones are discarded by tag.
func reinitiate(p *core.Process) {
	if _, declared := p.Deadlocked(); !declared {
		p.StartProbe() // a no-op unless p is blocked
	}
}

// parseCodec maps the -codec flag to a wire format. Both ends of a
// link may choose independently: the decoder sniffs the format from
// the stream's first byte and acks in kind.
func parseCodec(name string) (msg.WireFormat, error) {
	switch name {
	case "binary":
		return msg.WireBinary, nil
	case "gob":
		return msg.WireGob, nil
	}
	return 0, fmt.Errorf("unknown -codec %q (want binary or gob)", name)
}

// hostConfig carries the host-mode flags.
type hostConfig struct {
	idFlag, procs, shards int
	listen                string
	initiate              bool
	timeout               time.Duration
	maxBatch              int
	codec                 msg.WireFormat
	walDir                string
	ckptEvery             time.Duration
	sync                  wal.SyncPolicy
}

// runHostMode runs -procs co-located processes on one sharded
// engine.Host over ONE multiplexed TCP listener — the scaling
// deployment. The processes are wired into a request ring (the
// canonical total deadlock); with -initiate, process 0 starts a probe
// computation and the wall-clock detection latency is reported along
// with the host's shard statistics. The pre-host deployment would have
// opened one loopback listener and one dispatcher goroutine per
// process; host mode demonstrably opens one listener total.
//
// With -wal-dir the host is durable (DESIGN.md §11): every sequenced
// wire delivery is journaled write-ahead, checkpoints are written every
// -checkpoint-interval and at shutdown (the graceful-exit paths and
// SIGINT/SIGTERM alike), and a restart pointed at the same directory
// resumes from the newest checkpoint plus the deterministic tail
// replay instead of rebuilding the ring from scratch.
func runHostMode(out io.Writer, cfg hostConfig) error {
	hostID := transport.NodeID(1 + cfg.idFlag) // host ids must be positive
	net := transport.NewTCPWithOptions(transport.TCPOptions{
		MaxBatch: cfg.maxBatch,
		Codec:    cfg.codec,
		OnError: func(err error) {
			fmt.Fprintf(os.Stderr, "cmhnode host %v: transport: %v\n", hostID, err)
		},
	})
	defer net.Close()
	if err := net.ListenHost(hostID, cfg.listen); err != nil {
		return err
	}
	sp := transport.StaticPlacement{
		Hosts: map[transport.NodeID]transport.NodeID{},
		Addrs: map[transport.NodeID]string{hostID: net.HostAddr(hostID)},
	}
	for i := 0; i < cfg.procs; i++ {
		sp.Hosts[transport.NodeID(i)] = hostID
	}
	net.SetResolver(sp)
	host := engine.NewHost(engine.Options{Shards: cfg.shards, Transport: net})
	defer host.Close()

	var wlog *wal.Log
	if cfg.walDir != "" {
		w, err := wal.Open(wal.Options{Dir: cfg.walDir, Sync: cfg.sync})
		if err != nil {
			return err
		}
		defer w.Close()
		wlog = w
		host.AttachWAL(wlog, engine.DurabilityHooks{Incarnation: func() uint64 {
			inc, _ := net.Incarnation(hostID)
			return inc
		}})
	}

	detected := make(chan id.Tag, 1)
	ps := make([]*core.Process, cfg.procs)
	for i := 0; i < cfg.procs; i++ {
		pcfg := core.Config{
			ID:        id.Proc(i),
			Transport: host,
			Policy:    core.InitiateManually,
		}
		if i == 0 {
			pcfg.OnDeadlock = func(tag id.Tag) {
				select {
				case detected <- tag:
				default:
				}
			}
		}
		p, err := core.NewProcess(pcfg)
		if err != nil {
			return err
		}
		ps[i] = p
	}

	// Restore before serving traffic — it establishes the durability
	// generation even on a blank directory, and on a restart it loads
	// the newest checkpoint, replays the log tail, and primes the
	// transport's resequencer with the pre-crash incarnation.
	resumed := false
	if wlog != nil {
		if err := net.SetDeliveryLog(hostID, host); err != nil {
			return err
		}
		st, err := host.Restore()
		if err != nil {
			return err
		}
		if st.Found {
			if err := net.PrimeInbox(hostID, st.Inc, st.Cursors); err != nil {
				return err
			}
		}
		if err := host.FinishRestore(); err != nil {
			return err
		}
		resumed = st.Found
		fmt.Fprintf(out, "host %v: durable in %s (fsync=%v): resumed=%v snapshots=%d tail replayed=%d stale-gen dropped=%d gen=%d\n",
			hostID, cfg.walDir, cfg.sync, st.Found, st.SnapshotsRestored, st.TailReplayed, st.StaleGenDropped, st.Gen)
	}

	// The graceful-exit tail every return path shares: a final
	// checkpoint anchoring the run's state, then the durability table.
	finish := func() { durableFinish(out, hostID, host, wlog) }

	if wlog != nil && cfg.ckptEvery > 0 {
		stopCkpt := make(chan struct{})
		defer close(stopCkpt)
		go func() {
			tick := time.NewTicker(cfg.ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-tick.C:
					if err := host.Checkpoint(); err != nil {
						fmt.Fprintf(os.Stderr, "cmhnode host %v: checkpoint: %v\n", hostID, err)
					}
				}
			}
		}()
	}

	fmt.Fprintf(out, "host %v listening on %s: %d processes on %d shards, %d listener(s)\n",
		hostID, net.HostAddr(hostID), cfg.procs, cfg.shards, net.ListenerCount())

	if resumed {
		fmt.Fprintf(out, "host %v: request ring restored from checkpoint (%d processes)\n", hostID, cfg.procs)
	} else {
		for i := 0; i < cfg.procs; i++ {
			if err := ps[i].Request(id.Proc((i + 1) % cfg.procs)); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "host %v: request ring of %d processes wired (total deadlock)\n", hostID, cfg.procs)
	}
	if !cfg.initiate {
		host.Drain()
		st := host.Stats()
		fmt.Fprintf(out, "host %v: idle (intra-host sends=%d, batches=%d, max batch=%d); pass -initiate to detect\n",
			hostID, st.IntraSends, st.Batches, st.MaxBatch)
		finish()
		return nil
	}

	// A restored snapshot can already carry the verdict: if the crash
	// landed after a process declared, re-initiating is a no-op for it
	// and OnDeadlock never fires again. Report the restored declaration
	// instead of waiting out the timeout.
	if resumed {
		for i := 0; i < cfg.procs; i++ {
			if tag, ok := ps[i].Deadlocked(); ok {
				fmt.Fprintf(out, "host %v: DEADLOCK (restored): declared pre-crash by computation %v (%d-process cycle)\n",
					hostID, tag, cfg.procs)
				finish()
				return nil
			}
		}
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigC)

	start := time.Now()
	if _, ok := ps[0].StartProbe(); !ok {
		return fmt.Errorf("host mode: initiator not blocked")
	}
	select {
	case tag := <-detected:
		elapsed := time.Since(start)
		st := host.Stats()
		fmt.Fprintf(out, "host %v: DEADLOCK detected by computation %v in %v (%d-process cycle)\n",
			hostID, tag, elapsed.Round(time.Microsecond), cfg.procs)
		fmt.Fprintf(out, "host %v: intra-host sends=%d remote sends=%d batches=%d max batch=%d ring events=%d ring spills=%d\n",
			hostID, st.IntraSends, st.RemoteSends, st.Batches, st.MaxBatch, st.RingEvents, st.RingSpills)
		finish()
		return nil
	case sig := <-sigC:
		fmt.Fprintf(out, "host %v: %v — checkpointing and shutting down\n", hostID, sig)
		if !net.Drain(2 * time.Second) {
			fmt.Fprintf(out, "host %v: drain incomplete after 2s; queued frames survive in the log, not the wire\n", hostID)
		}
		finish()
		return nil
	case <-time.After(cfg.timeout):
		finish()
		return fmt.Errorf("host mode: no verdict after %v", cfg.timeout)
	}
}

// durableFinish is the graceful-exit tail host and cluster mode share:
// a final checkpoint anchoring the run's state, then the durability
// table. A nil wlog (durability off) makes it a no-op.
func durableFinish(out io.Writer, hostID transport.NodeID, host *engine.Host, wlog *wal.Log) {
	if wlog == nil {
		return
	}
	if err := host.Checkpoint(); err != nil {
		fmt.Fprintf(os.Stderr, "cmhnode host %v: final checkpoint: %v\n", hostID, err)
	} else {
		fmt.Fprintf(out, "host %v: final checkpoint written (seq=%d)\n", hostID, wlog.Stats().LastCheckpointSeq)
	}
	hs, ws := host.Stats(), wlog.Stats()
	fmt.Fprint(out, metrics.DurabilityStatsTable(metrics.DurabilityCounters{
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
	}))
}

// clusterConfig carries the cluster-mode flags.
type clusterConfig struct {
	idFlag, procs, shards int
	listen                string
	join                  string
	size                  int
	gossip                time.Duration
	initiate              bool
	timeout               time.Duration
	settle                time.Duration
	maxBatch              int
	codec                 msg.WireFormat
	verbose               bool
	walDir                string
	sync                  wal.SyncPolicy
}

// parseClusterSeeds parses the -join list: host=addr or host@addr,
// comma-separated. Host ids must be positive (the wire reserves
// non-positive ids for control-plane endpoints).
func parseClusterSeeds(s string) ([]cluster.Member, error) {
	var ms []cluster.Member
	for _, spec := range strings.Split(s, ",") {
		spec = strings.TrimSpace(spec)
		sep := "="
		if !strings.Contains(spec, "=") && strings.Contains(spec, "@") {
			sep = "@"
		}
		parts := strings.SplitN(spec, sep, 2)
		if len(parts) != 2 || parts[1] == "" {
			return nil, fmt.Errorf("bad -join entry %q (want host=addr or host@addr)", spec)
		}
		h, err := strconv.Atoi(parts[0])
		if err != nil || h <= 0 {
			return nil, fmt.Errorf("bad host id in -join entry %q: want a positive integer", spec)
		}
		ms = append(ms, cluster.Member{Host: transport.NodeID(h), Addr: parts[1]})
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("-join lists no members")
	}
	return ms, nil
}

// runClusterMode runs one self-assembling cluster host: gossip
// membership (seeded by -seed or joined through -join), consistent-hash
// placement of the -procs global processes onto whichever hosts are
// alive, and directory-resolved host links — no -peer, no per-pair
// wiring. Once -cluster-size hosts are alive, each host spawns the
// processes the ring assigns to it, wires its share of the global
// request ring (process n waits on n%procs+1 — the canonical total
// deadlock), and the host owning process 1 initiates when -initiate is
// set; the WFGD computation informs every other host of the verdict.
//
// With -wal-dir the host journals deliveries and writes a final
// checkpoint on exit; restart-resume stays host-mode-only because a
// rejoining host receives a fresh ring placement, so the directory must
// be blank at start. On SIGINT/SIGTERM the host gossips a leave
// tombstone and flushes it BEFORE the final checkpoint: peers observe
// leave-not-crash and rebalance immediately instead of waiting out the
// lease timeout on a host that is provably gone.
func runClusterMode(out io.Writer, cfg clusterConfig) error {
	if cfg.procs < 1 {
		return fmt.Errorf("cluster mode: -procs must be >= 1")
	}
	if cfg.idFlag < 0 {
		return fmt.Errorf("cluster mode: -id must be >= 0")
	}
	var seeds []cluster.Member
	if cfg.join != "" {
		var err error
		if seeds, err = parseClusterSeeds(cfg.join); err != nil {
			return err
		}
	}
	hostID := transport.NodeID(1 + cfg.idFlag) // host ids must be positive
	net := transport.NewTCPWithOptions(transport.TCPOptions{
		MaxBatch: cfg.maxBatch,
		Codec:    cfg.codec,
		OnError: func(err error) {
			fmt.Fprintf(os.Stderr, "cmhnode host %v: transport: %v\n", hostID, err)
		},
	})
	defer net.Close()
	if err := net.ListenHost(hostID, cfg.listen); err != nil {
		return err
	}
	dir := cluster.NewDirectory(hostID, net.HostAddr(hostID), 1)
	net.SetResolver(dir)
	eng := engine.NewHost(engine.Options{
		Shards:    cfg.shards,
		Transport: net,
		HostID:    hostID,
		ShardOf:   func(n transport.NodeID) int { return cluster.ShardIndex(n, cfg.shards) },
	})
	defer eng.Close()

	var wlog *wal.Log
	if cfg.walDir != "" {
		w, err := wal.Open(wal.Options{Dir: cfg.walDir, Sync: cfg.sync})
		if err != nil {
			return err
		}
		defer w.Close()
		wlog = w
		eng.AttachWAL(wlog, engine.DurabilityHooks{Incarnation: func() uint64 {
			inc, _ := net.Incarnation(hostID)
			return inc
		}})
		if err := net.SetDeliveryLog(hostID, eng); err != nil {
			return err
		}
		st, err := eng.Restore()
		if err != nil {
			return err
		}
		if st.Found {
			return fmt.Errorf("cluster mode needs a fresh -wal-dir: %s holds a checkpoint, and a rejoining host gets a fresh ring placement (restart resume is host-mode only)", cfg.walDir)
		}
		if err := eng.FinishRestore(); err != nil {
			return err
		}
	}

	detected := make(chan id.Tag, 1)
	var procMu sync.Mutex
	procs := map[transport.NodeID]*core.Process{}
	agent, err := cluster.New(cluster.Config{
		Host: hostID, TCP: net, Engine: eng, Dir: dir,
		Spawn: func(node transport.NodeID) {
			p, perr := core.NewProcess(core.Config{
				ID:        id.Proc(node),
				Transport: eng,
				Policy:    core.InitiateManually,
				OnDeadlock: func(tag id.Tag) {
					select {
					case detected <- tag:
					default:
					}
				},
				OnProtocolError: func(e core.ProtocolError) {
					fmt.Fprintf(os.Stderr, "cmhnode host %v: ingress: %v\n", hostID, e)
				},
			})
			if perr != nil {
				fmt.Fprintf(os.Stderr, "cmhnode host %v: spawn %v: %v\n", hostID, node, perr)
				return
			}
			procMu.Lock()
			procs[node] = p
			procMu.Unlock()
		},
		GossipInterval: cfg.gossip,
		Seed:           int64(hostID),
		OnEvent: func(kind string, node, host transport.NodeID) {
			if cfg.verbose {
				fmt.Fprintf(os.Stderr, "cmhnode host %v: cluster: %s node=%d host=%d\n", hostID, kind, node, host)
			}
		},
	})
	if err != nil {
		return err
	}
	agent.Start()
	defer agent.Stop()
	if len(seeds) > 0 {
		agent.Join(seeds)
	}
	fmt.Fprintf(out, "host %v listening on %s (cluster mode: %d global processes, %d shards)\n",
		hostID, net.HostAddr(hostID), cfg.procs, cfg.shards)

	// Membership: the ring is a pure function of the set of alive hosts,
	// so once this host sees -cluster-size alive members every converged
	// host computes the identical placement.
	if cfg.size > 1 {
		deadline := time.Now().Add(cfg.timeout)
		for len(dir.AliveHosts()) < cfg.size {
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster mode: %d of %d hosts alive after %v", len(dir.AliveHosts()), cfg.size, cfg.timeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	fmt.Fprintf(out, "host %v: membership converged: hosts %v\n", hostID, dir.AliveHosts())
	// Give the slower hosts a beat to reach the same member view before
	// cross-host frames start arriving for their processes.
	time.Sleep(cfg.settle)

	// Place and spawn the locally-owned share of processes 1..procs (the
	// wire reserves non-positive ids for control-plane endpoints).
	local := 0
	for n := transport.NodeID(1); n <= transport.NodeID(cfg.procs); n++ {
		if owner, ok := dir.Lookup(n); ok && owner == hostID {
			agent.SpawnLocal(n)
			local++
		}
	}
	fmt.Fprintf(out, "host %v: ring placed %d of %d processes here\n", hostID, local, cfg.procs)
	time.Sleep(cfg.settle)

	// Each host wires its share of the global request ring: process n
	// waits on n%procs+1. Cross-host requests ride directory-resolved
	// links; the union over all hosts is the canonical total deadlock.
	if cfg.procs > 1 {
		procMu.Lock()
		owned := make([]*core.Process, 0, len(procs))
		targets := make([]id.Proc, 0, len(procs))
		for n, p := range procs {
			owned = append(owned, p)
			targets = append(targets, id.Proc(int(n)%cfg.procs+1))
		}
		procMu.Unlock()
		for i, p := range owned {
			if err := p.Request(targets[i]); err != nil {
				return fmt.Errorf("cluster mode: request: %w", err)
			}
		}
		fmt.Fprintf(out, "host %v: wired %d request-ring edges\n", hostID, len(owned))
	}

	var initiator *core.Process // nil unless -initiate and process 1 lives here
	if cfg.initiate {
		time.Sleep(cfg.settle) // let every host wire its edges first
		procMu.Lock()
		initiator = procs[1]
		procMu.Unlock()
		if initiator != nil {
			if tag, ok := initiator.StartProbe(); ok {
				fmt.Fprintf(out, "host %v: initiated probe computation %v\n", hostID, tag)
			}
		}
	}

	finish := func() { durableFinish(out, hostID, eng, wlog) }
	// verdict ends the run on a declaration or on learning one. The WFGD
	// frames that carry the verdict on to the other hosts were sent in
	// the step that produced it and may still sit in a shard queue or a
	// link's write batch, and Close drops queued frames: without the two
	// drains the peers behind this host time out with no verdict.
	verdict := func() {
		eng.Drain()
		net.Drain(2 * time.Second)
		finish()
	}
	localProcs := func() []*core.Process {
		procMu.Lock()
		defer procMu.Unlock()
		ps := make([]*core.Process, 0, len(procs))
		for _, p := range procs {
			ps = append(ps, p)
		}
		return ps
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigC)
	deadline := time.After(cfg.timeout)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case tag := <-detected:
			fmt.Fprintf(out, "host %v: DEADLOCK detected by computation %v (%d processes across %d hosts)\n",
				hostID, tag, cfg.procs, len(dir.AliveHosts()))
			verdict()
			return nil
		case <-tick.C:
			for _, p := range localProcs() {
				if edges := p.BlackPaths(); len(edges) > 0 {
					fmt.Fprintf(out, "host %v: informed of deadlocked edges %v\n", hostID, edges)
					verdict()
					return nil
				}
			}
			if initiator != nil {
				reinitiate(initiator)
			}
		case sig := <-sigC:
			// Leave-before-checkpoint: gossip the tombstone and flush it
			// while the links are healthy, so peers see an explicit leave
			// (immediate rebalance) instead of a lease-timeout crash
			// verdict; only then anchor the final checkpoint.
			fmt.Fprintf(out, "host %v: %v — leaving the member map, then checkpointing\n", hostID, sig)
			agent.Leave()
			if !net.Drain(2 * time.Second) {
				fmt.Fprintf(out, "host %v: drain incomplete after 2s; tombstone may arrive via gossip instead\n", hostID)
			}
			fmt.Fprintf(out, "host %v: left the member map (tombstone gossiped)\n", hostID)
			finish()
			return nil
		case <-deadline:
			fmt.Fprintf(out, "host %v: no verdict after %v (%d local processes)\n", hostID, cfg.timeout, len(localProcs()))
			finish()
			return nil
		}
	}
}

// recoveryWiring connects transport liveness events to the process's
// crash-recovery API. ConnPeerDown severs the wait edges toward the
// suspected peer (PeerDown); ConnPeerUp clears the per-peer fencing
// state and re-announces any still-outstanding wait edge (PeerUp +
// Reannounce) so a restarted incarnation rebuilds its dependent set.
type recoveryWiring struct {
	mu   sync.Mutex
	proc *core.Process
}

func (r *recoveryWiring) set(p *core.Process) {
	r.mu.Lock()
	r.proc = p
	r.mu.Unlock()
}

func (r *recoveryWiring) onConnEvent(ev transport.ConnEvent) {
	if ev.Kind != transport.ConnPeerDown && ev.Kind != transport.ConnPeerUp {
		return
	}
	r.mu.Lock()
	p := r.proc
	r.mu.Unlock()
	if p == nil {
		return
	}
	peer := id.Proc(ev.To)
	switch ev.Kind {
	case transport.ConnPeerDown:
		p.PeerDown(peer)
	case transport.ConnPeerUp:
		p.PeerUp(peer)
		p.Reannounce(peer)
	}
}

// addrShim is a transport adapter that routes the process's
// registration to RegisterAddr with an explicit listen address; sends
// pass through unchanged.
type addrShim struct {
	tcp  *transport.TCP
	addr string
	err  error
}

// Register implements transport.Transport.
func (s *addrShim) Register(node transport.NodeID, h transport.Handler) {
	s.err = s.tcp.RegisterAddr(node, s.addr, h)
}

// Send implements transport.Transport.
func (s *addrShim) Send(from, to transport.NodeID, m msg.Message) {
	s.tcp.Send(from, to, m)
}

var _ transport.Transport = (*addrShim)(nil)
