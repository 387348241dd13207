package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ddb"
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/transport"
	"repro/internal/wal"
)

// wallTimers is the real-time ddb.Timers. HoldTime and StepDelay are 0,
// so script steps run on a fresh goroutine at once; only the detection
// delay T and retry backoffs go through the runtime timer heap (an idle
// P rounds those to ~1 ms — see README.md, pitfalls).
type wallTimers struct{ armed atomic.Int64 }

func (t *wallTimers) After(d int64, fn func()) {
	if d <= 0 {
		go fn()
		return
	}
	t.armed.Add(1)
	time.AfterFunc(time.Duration(d), fn)
}

// stackConfig selects what assemble builds.
type stackConfig struct {
	cluster bool
	fsync   wal.SyncPolicy
	resolve bool // victim youngest with aborts; false leaves deadlocks standing
	outDir  string
	tracer  *tracer // nil in untraced runs
}

// hooks are the controller callbacks the driver hangs its bookkeeping on.
type hooks struct {
	onCommit    func(id.Txn)
	onAbort     func(id.Txn)
	onDeadlock  func(id.Agent, id.CtrlTag)
	onWaitStart func(id.Agent)
	onWaitEnd   func(id.Agent)
}

// node is one host of the cluster: its own TCP endpoint, directory,
// sharded engine, WAL and control-plane agent.
type node struct {
	host   transport.NodeID
	tcp    *transport.TCP
	dir    *cluster.Directory
	eng    *engine.Host
	wal    *wal.Log
	walDir string
	agent  *cluster.Agent
}

// stack is the assembled system under test: three gossip-joined hosts
// (or one local engine.Host) and one ddb.Controller per site.
type stack struct {
	cfg    stackConfig
	nodes  []*node
	local  *engine.Host
	ctrls  []*ddb.Controller
	hostOf [numSites]transport.NodeID
	timers *wallTimers
	walTop string

	convergeMs float64
	skew       float64
}

var walDirSeq atomic.Int64

// assemble builds the stack from the layers' public functions only, in
// cmhnode's cluster-mode order: listen, directory, engine, WAL attach +
// restore, agent + gossip join, then controllers placed by the ring.
func assemble(cfg stackConfig, hk hooks) (*stack, error) {
	s := &stack{cfg: cfg, timers: &wallTimers{}}
	if !cfg.cluster {
		s.local = engine.NewHost(engine.Options{Shards: hostShards})
		var tr transport.Transport = s.local
		if cfg.tracer != nil {
			s.local.Observe(cfg.tracer.hops)
			tr = tracedTransport{Host: s.local, tr: cfg.tracer}
		}
		for site := 0; site < numSites; site++ {
			if err := s.addController(id.Site(site), tr, hk); err != nil {
				s.close()
				return nil, err
			}
		}
		return s, nil
	}

	s.walTop = filepath.Join(cfg.outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), walDirSeq.Add(1)))
	for i := 0; i < clusterHosts; i++ {
		n, err := s.startNode(transport.NodeID(i + 1))
		if n != nil {
			s.nodes = append(s.nodes, n)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}

	// Everyone joins through host 1; the directories have converged when
	// their fingerprints agree on a full member set.
	joined := time.Now()
	seed := cluster.Member{Host: s.nodes[0].host, Addr: s.nodes[0].tcp.HostAddr(s.nodes[0].host)}
	for _, n := range s.nodes[1:] {
		n.agent.Join([]cluster.Member{seed})
	}
	deadline := joined.Add(10 * time.Second)
	for !s.converged() {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("cluster did not converge within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.convergeMs = float64(time.Since(joined).Nanoseconds()) / 1e6

	byHost := map[transport.NodeID]*node{}
	for _, n := range s.nodes {
		byHost[n.host] = n
	}
	perHost := map[transport.NodeID]int{}
	for site := 0; site < numSites; site++ {
		owner, ok := s.nodes[0].dir.Lookup(transport.NodeID(site))
		if !ok {
			s.close()
			return nil, fmt.Errorf("no owner for site %d", site)
		}
		s.hostOf[site] = owner
		perHost[owner]++
		var tr transport.Transport = byHost[owner].eng
		if cfg.tracer != nil {
			tr = tracedTransport{Host: byHost[owner].eng, tr: cfg.tracer}
		}
		if err := s.addController(id.Site(site), tr, hk); err != nil {
			s.close()
			return nil, err
		}
	}
	most := 0
	for _, c := range perHost {
		if c > most {
			most = c
		}
	}
	s.skew = float64(most) / (float64(numSites) / clusterHosts)
	return s, nil
}

func (s *stack) startNode(h transport.NodeID) (*node, error) {
	n := &node{host: h, walDir: filepath.Join(s.walTop, fmt.Sprintf("host%d", h))}
	n.tcp = transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: tcpMaxBatch})
	if err := n.tcp.ListenHost(h, "127.0.0.1:0"); err != nil {
		return n, err
	}
	n.dir = cluster.NewDirectory(h, n.tcp.HostAddr(h), 1)
	var resolver transport.PlacementResolver = n.dir
	if s.cfg.tracer != nil {
		resolver = tracedResolver{dir: n.dir, tr: s.cfg.tracer}
	}
	n.tcp.SetResolver(resolver)
	n.eng = engine.NewHost(engine.Options{
		Shards:    hostShards,
		Transport: n.tcp,
		HostID:    h,
		ShardOf:   func(p transport.NodeID) int { return cluster.ShardIndex(p, hostShards) },
	})
	// Observers go on engine.Host only, and only when tracing:
	// TCP.Observe would disable stream-ring binding (README.md, pitfalls).
	if s.cfg.tracer != nil {
		n.eng.Observe(s.cfg.tracer.hops)
	}

	w, err := wal.Open(wal.Options{Dir: n.walDir, Sync: s.cfg.fsync})
	if err != nil {
		return n, err
	}
	n.wal = w
	n.eng.AttachWAL(w, engine.DurabilityHooks{Incarnation: func() uint64 {
		inc, _ := n.tcp.Incarnation(h)
		return inc
	}})
	var lg transport.DeliveryLog = n.eng
	if s.cfg.tracer != nil {
		lg = tracedLog{host: n.eng, tr: s.cfg.tracer}
	}
	if err := n.tcp.SetDeliveryLog(h, lg); err != nil {
		return n, err
	}
	st, err := n.eng.Restore()
	if err != nil {
		return n, err
	}
	if st.Found {
		return n, fmt.Errorf("host %d: WAL dir %s is not fresh", h, n.walDir)
	}
	if err := n.eng.FinishRestore(); err != nil {
		return n, err
	}

	n.agent, err = cluster.New(cluster.Config{Host: h, TCP: n.tcp, Engine: n.eng, Dir: n.dir, Seed: int64(h)})
	if err != nil {
		return n, err
	}
	n.agent.Start()
	return n, nil
}

// converged reports whether every directory agrees on a full member set
// and every host has gossiped to every other. The second half makes the
// delivery path deterministic: an inbound stream is bound to the shard
// rings or to the dispatch mailbox by its first frame, for life, and an
// agent frame binds it to the mailbox; were site traffic allowed to race
// the first gossip round on the 2↔3 streams, runs would differ in kind.
func (s *stack) converged() bool {
	fp := s.nodes[0].dir.Fingerprint()
	for _, n := range s.nodes {
		if n.dir.Fingerprint() != fp || n.tcp.LinkCount() != len(s.nodes)-1 {
			return false
		}
	}
	return len(s.nodes[0].dir.AliveHosts()) == len(s.nodes)
}

func (s *stack) addController(site id.Site, tr transport.Transport, hk hooks) error {
	c, err := ddb.NewController(ddb.Config{
		Site:         site,
		Transport:    tr,
		Timers:       s.timers,
		ResourceHome: resourceHome,
		Mode:         ddb.InitiateOnWaitDelay,
		Delay:        int64(delayT),
		Resolve:      s.cfg.resolve,
		Victim:       ddb.VictimYoungest,
		OnDeadlock:   hk.onDeadlock,
		OnCommit:     hk.onCommit,
		OnAbort:      hk.onAbort,
		OnWaitStart:  hk.onWaitStart,
		OnWaitEnd:    hk.onWaitEnd,
	})
	if err != nil {
		return err
	}
	s.ctrls = append(s.ctrls, c)
	return nil
}

// close tears the stack down and removes its WAL directories. Errors
// closing a log are returned so a failed final sync is not silent.
func (s *stack) close() error {
	var first error
	for _, n := range s.nodes {
		if n.agent != nil {
			n.agent.Stop()
		}
	}
	for _, n := range s.nodes {
		if n.eng != nil {
			n.eng.Close()
		}
		n.tcp.Close()
		if n.wal != nil {
			if err := n.wal.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if s.local != nil {
		s.local.Close()
	}
	if s.walTop != "" {
		if err := os.RemoveAll(s.walTop); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// counters is the post-run scrape of every layer's public Stats.
type counters struct {
	host     engine.HostStats
	tcp      transport.TCPStats
	ctrl     ddb.ControllerStats
	walSyncs uint64
	walBytes int64
	timers   int64
}

func (s *stack) scrape() counters {
	var c counters
	hosts := []*engine.Host{s.local}
	if s.cfg.cluster {
		hosts = hosts[:0]
		for _, n := range s.nodes {
			hosts = append(hosts, n.eng)
			addTCP(&c.tcp, n.tcp.Stats())
			c.walSyncs += n.wal.Stats().Syncs
			segs, _ := filepath.Glob(filepath.Join(n.walDir, "wal-*.seg"))
			for _, f := range segs {
				if fi, err := os.Stat(f); err == nil {
					c.walBytes += fi.Size()
				}
			}
		}
	}
	for _, h := range hosts {
		st := h.Stats()
		c.host.IntraSends += st.IntraSends
		c.host.RemoteSends += st.RemoteSends
		c.host.RemoteRecvs += st.RemoteRecvs
		c.host.Batches += st.Batches
		c.host.Events += st.Events
		c.host.RingEvents += st.RingEvents
		c.host.RingSpills += st.RingSpills
		c.host.RecordsAppended += st.RecordsAppended
		c.host.WALErrors += st.WALErrors
	}
	for _, ct := range s.ctrls {
		st := ct.Stats()
		c.ctrl.Computations += st.Computations
		c.ctrl.ProbesSent += st.ProbesSent
		c.ctrl.DeclaredLocal += st.DeclaredLocal
		c.ctrl.DeclaredRemote += st.DeclaredRemote
		c.ctrl.Commits += st.Commits
		c.ctrl.Aborts += st.Aborts
		c.ctrl.ProtocolErrors += st.ProtocolErrors
	}
	c.timers = s.timers.armed.Load()
	return c
}

func addTCP(dst *transport.TCPStats, st transport.TCPStats) {
	dst.FramesWritten += st.FramesWritten
	dst.Flushes += st.Flushes
	dst.VectorFlushes += st.VectorFlushes
	dst.AcksSent += st.AcksSent
	dst.Resequenced += st.Resequenced
	dst.Replayed += st.Replayed
	dst.Duplicates += st.Duplicates
	dst.WriteErrors += st.WriteErrors
	if st.MailboxPeak > dst.MailboxPeak {
		dst.MailboxPeak = st.MailboxPeak
	}
}
