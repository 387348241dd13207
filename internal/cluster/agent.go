package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/msg"
	"repro/internal/transport"
)

// Agent is the per-host control-plane actor: one pseudo-node with id
// -Host that gossips the directory, answers migration requests, and
// runs the flush protocol that keeps re-routing order-safe. It is a
// transport.Handler registered on the host's own TCP endpoint, so
// every control message is an ordinary msg.Cluster frame on the
// ordinary host links — the agent owns no sockets.
//
// The negative-id convention gives agents addresses for free: the
// Directory resolves process -h to host h unconditionally, so agent
// frames ride host links exactly like process frames, and a host id
// can never collide with a process id (process ids are positive).
//
// Migration protocol, host A (source) → host B (target), process P
// (DESIGN.md §12.3 carries the full ordering proof):
//
//	A: Migrate(P,B)    → Prepare{P,A} ............................ → B
//	B: gate own sends to P; PrepareMigration(P); spawn shell
//	B: ................ → PrepareAck{P,B} ........................ → A
//	A: Park(P); ExtractMigration(P): ship State{snapshot,parked},
//	   commit route P→B ver+1, flip P to forwarding
//	B: InstallMigration(P); then flush its own old path:
//	   FlushMarker{P,origin:B} via the *old* route (B→A), which A
//	   forwards behind every earlier forwarded frame (A→B), where the
//	   engine control hook hands it back to B's agent
//	B: on FlushAck: commit route, ungate — pre-gate frames provably
//	   all delivered before any gated one
//	A: push the directory, new route included, to every alive host
//	X: any other host learns the route from that push (or a later
//	   gossip round) and runs the same
//	   gate → marker-via-old-route → ack → commit → ungate dance.
//
// Locking rule: a.mu protects only the agent's own maps and is NEVER
// held across an engine or transport call — the engine control hook
// calls back into the agent from shard loops, and InstallMigration
// replays parked markers synchronously, so holding a.mu there would
// self-deadlock.
type Agent struct {
	cfg Config
	id  transport.NodeID

	mu        sync.Mutex
	local     map[transport.NodeID]bool             // processes hosted here
	migrating map[transport.NodeID]transport.NodeID // outbound moves: node → dest

	stopOnce sync.Once
	stopCh   chan struct{}
	done     sync.WaitGroup
}

// Config wires an Agent to its host's stack.
type Config struct {
	// Host is this host's id (positive). The agent's node id is -Host.
	Host transport.NodeID
	// TCP is the host's transport endpoint. The caller must have called
	// ListenHost(Host, addr) and SetResolver(Dir) already.
	TCP *transport.TCP
	// Engine is the host's process engine, created with
	// Options{Transport: TCP, HostID: Host}.
	Engine *engine.Host
	// Dir is the host's directory (also the TCP resolver).
	Dir *Directory
	// Spawn constructs and registers the handler for node on Engine.
	// Called for migration shells (after PrepareMigration, so the
	// registration lands parked) — it must only build the process, never
	// send: the shipped snapshot overwrites whatever state it starts
	// with.
	Spawn func(node transport.NodeID)
	// GossipInterval is the period of the anti-entropy round (default
	// 25ms). Directory changes do not wait for it: they are pushed when
	// they happen.
	GossipInterval time.Duration
	// Fanout is how many random alive peers each round pushes to
	// (default 2).
	Fanout int
	// Seed seeds peer selection, making test gossip schedules
	// reproducible (default 1).
	Seed int64
	// OnEvent, when set, observes control-plane transitions ("sync",
	// "prepare", "extract", "install", "route", "leave"). May be called
	// concurrently from socket reader and shard goroutines.
	OnEvent func(kind string, node, host transport.NodeID)
}

// New validates cfg and builds the agent. Call Start to attach it.
func New(cfg Config) (*Agent, error) {
	if cfg.Host <= 0 {
		return nil, fmt.Errorf("cluster: agent host %d: host ids must be positive", cfg.Host)
	}
	if cfg.TCP == nil || cfg.Engine == nil || cfg.Dir == nil {
		return nil, fmt.Errorf("cluster: agent for host %d: TCP, Engine and Dir are required", cfg.Host)
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 25 * time.Millisecond
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Agent{
		cfg:       cfg,
		id:        -cfg.Host,
		local:     map[transport.NodeID]bool{},
		migrating: map[transport.NodeID]transport.NodeID{},
		stopCh:    make(chan struct{}),
	}, nil
}

// ID returns the agent's pseudo-node id (-Host).
func (a *Agent) ID() transport.NodeID { return a.id }

// Start registers the agent on the transport, installs the engine
// control hook for in-band flush markers, and starts the gossip loop.
func (a *Agent) Start() {
	a.cfg.TCP.Register(a.id, a)
	a.cfg.Engine.SetControlHook(a.handleControl)
	a.done.Add(1)
	go a.gossipLoop()
}

// Stop halts the gossip loop. It does not unregister the agent: in-
// flight protocol exchanges (acks for this host's markers) must still
// arrive.
func (a *Agent) Stop() {
	a.stopOnce.Do(func() { close(a.stopCh) })
	a.done.Wait()
}

// Join merges seed stubs ({Host, Addr} pairs, zero version so any real
// entry supersedes them) and push-pull syncs each seed, so the joiner
// gets the cluster view back within one round trip instead of a gossip
// round.
func (a *Agent) Join(seeds []Member) {
	for i := range seeds {
		seeds[i].Inc, seeds[i].Ver, seeds[i].Status = 0, 0, StatusAlive
	}
	a.cfg.Dir.Merge(seeds)
	payload := a.syncPayload(true)
	for _, s := range seeds {
		if s.Host != a.cfg.Host {
			a.cfg.TCP.Send(a.id, -s.Host, msg.Cluster{Payload: payload})
		}
	}
}

// Leave publishes this host's tombstone and pushes it to every alive
// peer immediately, so peers drop the host from the ring before it
// stops serving.
func (a *Agent) Leave() {
	a.cfg.Dir.MarkLeft(a.cfg.Host)
	a.pushAll()
	a.event("leave", 0, a.cfg.Host)
}

// SpawnLocal creates process node on this host through the configured
// Spawn hook and records it as hosted here. Initial placement goes
// through this (the caller consults Dir.Lookup for ownership);
// migration shells go through the Prepare handler instead.
func (a *Agent) SpawnLocal(node transport.NodeID) {
	a.mu.Lock()
	already := a.local[node]
	a.local[node] = true
	a.mu.Unlock()
	if !already && a.cfg.Spawn != nil {
		a.cfg.Spawn(node)
	}
}

// Hosted reports whether node currently runs on this host.
func (a *Agent) Hosted(node transport.NodeID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.local[node]
}

// Migrate starts moving node from this host to dest. It is
// asynchronous: the move completes when the route commits (observe via
// OnEvent "extract"/"install"/"route" or Directory.RouteVer).
func (a *Agent) Migrate(node, dest transport.NodeID) error {
	if node <= 0 || dest <= 0 {
		return fmt.Errorf("cluster: migrate node %d to host %d: ids must be positive", node, dest)
	}
	if dest == a.cfg.Host {
		return fmt.Errorf("cluster: migrate node %d: already on host %d", node, dest)
	}
	a.mu.Lock()
	if !a.local[node] {
		a.mu.Unlock()
		return fmt.Errorf("cluster: migrate node %d: not hosted on %d", node, a.cfg.Host)
	}
	if d, busy := a.migrating[node]; busy {
		a.mu.Unlock()
		return fmt.Errorf("cluster: migrate node %d: already migrating to host %d", node, d)
	}
	a.migrating[node] = dest
	a.mu.Unlock()
	a.send(dest, Prepare{Node: node, From: a.cfg.Host})
	return nil
}

// HandleMessage implements transport.Handler: the agent's inbox. It runs
// on the host's socket reader under the inbox lock (transport.Handler),
// so nothing it does may wait for a frame into this host. Its migration
// steps (Park, ExtractMigration, InstallMigration) wait on a shard step,
// and a shard step never takes the inbox lock. Malformed payloads are
// dropped — a control-plane peer speaking a different format must not
// take the data plane down.
func (a *Agent) HandleMessage(from transport.NodeID, m msg.Message) {
	c, ok := m.(msg.Cluster)
	if !ok {
		return
	}
	p, err := Decode(c.Payload)
	if err != nil {
		return
	}
	switch v := p.(type) {
	case Sync:
		a.handleSync(v)
	case Prepare:
		a.handlePrepare(v)
	case PrepareAck:
		a.handlePrepareAck(v)
	case State:
		a.handleState(v)
	case FlushAck:
		a.handleFlushAck(v)
	case FlushMarker:
		// Markers are addressed to processes and arrive via the engine
		// control hook; one addressed to the agent itself is a peer bug.
	}
}

// handleControl is the engine control hook: a msg.Cluster frame
// surfaced on a hosted process's delivery path — a flush marker that
// has drained its origin's old route. Acknowledge to the origin so it
// can commit and ungate. Runs on shard loop goroutines.
func (a *Agent) handleControl(from, to transport.NodeID, c msg.Cluster) {
	p, err := Decode(c.Payload)
	if err != nil {
		return
	}
	mk, ok := p.(FlushMarker)
	if !ok || mk.Node != to {
		return
	}
	a.send(mk.Origin, FlushAck{Node: mk.Node, Ver: mk.Ver})
}

// handleSync merges a peer's view and push-pulls every host the merge
// made alive, so a joiner's existence spreads in message delays, not
// gossip rounds. The sender itself gets a plain reply instead: when it
// asked for one, or when it is new here and its push asked for none.
// Only a change to this host's directory triggers a push, and merges
// are monotone, so the pushes end (DESIGN.md §12.1).
func (a *Agent) handleSync(v Sync) {
	changed, joined := a.cfg.Dir.Merge(v.Members)
	for _, r := range a.cfg.Dir.MergeRoutes(v.Routes) {
		a.startFlush(r)
	}
	reply := v.ReplyWanted
	var pull []transport.NodeID
	for _, h := range joined {
		switch h {
		case a.cfg.Host:
		case v.From:
			reply = true
		default:
			pull = append(pull, h)
		}
	}
	if reply && v.From != a.cfg.Host {
		a.cfg.TCP.Send(a.id, -v.From, msg.Cluster{Payload: a.syncPayload(false)})
	}
	if len(pull) > 0 {
		payload := a.syncPayload(true)
		for _, h := range pull {
			a.cfg.TCP.Send(a.id, -h, msg.Cluster{Payload: payload})
		}
	}
	if changed {
		a.event("sync", 0, v.From)
	}
}

// handlePrepare makes this host a migration target. Order is load-
// bearing: gate own sends first (frames this host already sent to the
// old home are in flight and must not be overtaken by new local ones),
// then arm the park, then spawn — the registration lands parked, so no
// frame arriving ahead of the state is stepped early or dropped.
func (a *Agent) handlePrepare(v Prepare) {
	a.cfg.Engine.GateSends(v.Node)
	a.cfg.Engine.PrepareMigration(v.Node)
	a.mu.Lock()
	spawned := a.local[v.Node]
	a.mu.Unlock()
	if !spawned && a.cfg.Spawn != nil {
		a.cfg.Spawn(v.Node)
	}
	a.event("prepare", v.Node, v.From)
	a.send(v.From, PrepareAck{Node: v.Node, From: a.cfg.Host})
}

// handlePrepareAck performs the cut on the source: park (draining the
// shard queue), then extract — the shipped State leaves on this host's
// link to the target inside the extract step, so it precedes every
// forwarded frame; the route commits in the same step, so it is
// published only once forwarding is guaranteed on. The source
// originates the route, so it pushes it to every alive host at once
// rather than leaving third hosts to a gossip round.
func (a *Agent) handlePrepareAck(v PrepareAck) {
	a.mu.Lock()
	dest, ok := a.migrating[v.Node]
	a.mu.Unlock()
	if !ok || dest != v.From {
		return
	}
	if err := a.cfg.Engine.Park(v.Node); err != nil {
		return
	}
	node := v.Node
	err := a.cfg.Engine.ExtractMigration(node, func(state []byte, parked []engine.MigratedFrame) error {
		ver := a.cfg.Dir.RouteVer(node) + 1
		a.send(dest, State{
			Node: node, From: a.cfg.Host, RouteVer: ver,
			Snapshot: state, Frames: parked,
		})
		a.cfg.Dir.CommitRoute(Route{Node: node, Host: dest, Ver: ver})
		return nil
	})
	a.mu.Lock()
	delete(a.migrating, node)
	if err == nil {
		a.local[node] = false
	}
	a.mu.Unlock()
	if err == nil {
		a.pushAll()
		a.event("extract", node, dest)
	}
}

// handleState completes the move on the target: install (restore +
// replay shipped then shell-parked frames in one shard step), then run
// the standard flush dance for this host's own old path — its pre-gate
// frames took the long way (target→source, forwarded back) and the
// marker fences them exactly like any third party's.
func (a *Agent) handleState(v State) {
	if err := a.cfg.Engine.InstallMigration(v.Node, v.Snapshot, v.Frames); err != nil {
		return
	}
	a.mu.Lock()
	a.local[v.Node] = true
	a.mu.Unlock()
	a.event("install", v.Node, v.From)
	for _, r := range a.cfg.Dir.MergeRoutes([]Route{{Node: v.Node, Host: a.cfg.Host, Ver: v.RouteVer}}) {
		a.startFlush(r)
	}
}

// startFlush fences one pending route: gate outbound sends to the
// node, then send a flush marker addressed to the node itself via the
// still-committed old route. The marker trails every frame this host
// ever sent that way; when it surfaces at the node's new home, the ack
// releases the gate (handleFlushAck).
func (a *Agent) startFlush(r Route) {
	a.cfg.Engine.GateSends(r.Node)
	a.cfg.TCP.Send(a.id, r.Node, msg.Cluster{Payload: Encode(FlushMarker{
		Node: r.Node, Origin: a.cfg.Host, Ver: r.Ver,
	})})
}

// handleFlushAck commits the pending route and releases the gate —
// but only for the version still pending: a newer route learned
// mid-flush supersedes the round and its own marker is already out.
func (a *Agent) handleFlushAck(v FlushAck) {
	r, ok := a.cfg.Dir.PendingRoute(v.Node)
	if !ok || r.Ver != v.Ver {
		return
	}
	a.cfg.Dir.CommitRoute(r)
	a.cfg.Engine.UngateSends(v.Node)
	a.event("route", v.Node, r.Host)
}

// gossipLoop periodically pushes the directory to Fanout random alive
// peers; a round asks for no reply. Changes already spread when they
// happen (handleSync, pushAll), so the round is the anti-entropy
// backstop for a push lost to a failed link. Peer choice is the only
// randomness in the control plane and it is seeded, so a test cluster
// gossips the same schedule every run.
func (a *Agent) gossipLoop() {
	defer a.done.Done()
	rng := rand.New(rand.NewSource(a.cfg.Seed))
	t := time.NewTicker(a.cfg.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-a.stopCh:
			return
		case <-t.C:
		}
		var peers []transport.NodeID
		for _, h := range a.cfg.Dir.AliveHosts() {
			if h != a.cfg.Host {
				peers = append(peers, h)
			}
		}
		if len(peers) == 0 {
			continue
		}
		rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
		n := a.cfg.Fanout
		if n > len(peers) {
			n = len(peers)
		}
		payload := a.syncPayload(false)
		for _, h := range peers[:n] {
			a.cfg.TCP.Send(a.id, -h, msg.Cluster{Payload: payload})
		}
	}
}

// pushAll pushes this host's view to every other alive host: the
// originator of a change (a leave tombstone, a migration's route)
// announces it at once.
func (a *Agent) pushAll() {
	payload := a.syncPayload(false)
	for _, h := range a.cfg.Dir.AliveHosts() {
		if h != a.cfg.Host {
			a.cfg.TCP.Send(a.id, -h, msg.Cluster{Payload: payload})
		}
	}
}

// syncPayload encodes this host's full directory view.
func (a *Agent) syncPayload(replyWanted bool) []byte {
	return Encode(Sync{
		From:        a.cfg.Host,
		ReplyWanted: replyWanted,
		Members:     a.cfg.Dir.Members(),
		Routes:      a.cfg.Dir.Routes(),
	})
}

// send delivers one control payload to another host's agent.
func (a *Agent) send(host transport.NodeID, p Payload) {
	a.cfg.TCP.Send(a.id, -host, msg.Cluster{Payload: Encode(p)})
}

func (a *Agent) event(kind string, node, host transport.NodeID) {
	if a.cfg.OnEvent != nil {
		a.cfg.OnEvent(kind, node, host)
	}
}
