package baseline

import (
	"sort"
	"sync"

	"repro/internal/ddb"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/transport"
)

// PathPushing is a simplified Obermarck-style detector (the paper's
// reference [7], and a principal target of the Gligor–Shattuck critique
// it quotes): each site periodically condenses its local wait-for
// information to transaction-level paths and pushes the paths that exit
// through an inter-site wait to the site they point at; receiving sites
// splice stored paths into the next round's cycle search. Because the
// spliced fragments were sampled at different instants, composed cycles
// may never have coexisted — the same phantom-deadlock defect as the
// centralized scheme, but decentralized. Experiment E7's narrative
// covers it via the dedicated tests in this package.
type PathPushing struct {
	cluster *ddb.Cluster
	period  sim.Duration
	resolve bool
	nodes   []transport.NodeID // one helper node per site, offset above the controllers

	mu           sync.Mutex
	stored       map[id.Site][]txnPath // paths received, keyed by origin site
	declaredLive map[id.Txn]bool
	declarations []Declaration
	pathsSent    int
	stopped      bool
}

// txnPath is a chain of transactions T1 -> T2 -> ... waiting on each
// other, ending in a transaction whose wait continues at another site.
type txnPath []id.Txn

// NewPathPushing attaches the detector: helper node i = len(controllers)+i
// receives pushed paths for site i, and each site runs a periodic round
// on the cluster scheduler.
func NewPathPushing(cl *ddb.Cluster, period sim.Duration, resolve bool) *PathPushing {
	pp := &PathPushing{
		cluster:      cl,
		period:       period,
		resolve:      resolve,
		stored:       make(map[id.Site][]txnPath),
		declaredLive: make(map[id.Txn]bool),
	}
	base := len(cl.Controllers)
	for i := range cl.Controllers {
		site := id.Site(i)
		node := transport.NodeID(base + i)
		pp.nodes = append(pp.nodes, node)
		cl.Net.Register(node, transport.HandlerFunc(func(_ transport.NodeID, m msg.Message) {
			report, ok := m.(msg.BaselineReport)
			if !ok {
				return
			}
			pp.storePaths(report)
		}))
		offset := sim.Duration(int64(i)) * period / sim.Duration(int64(len(cl.Controllers)))
		cl.Sched.After(offset, func() { pp.round(site) })
	}
	return pp
}

// Stop halts future rounds.
func (pp *PathPushing) Stop() {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	pp.stopped = true
}

// storePaths decodes a pushed report: each AgentEdge list entry with
// From.Site == To.Site encodes one hop of a path; consecutive hops with
// matching transactions chain. For simplicity the wire format packs one
// path per report edge pair (From.Txn -> To.Txn).
func (pp *PathPushing) storePaths(report msg.BaselineReport) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	var paths []txnPath
	for _, e := range report.Edges {
		paths = append(paths, txnPath{e.From.Txn, e.To.Txn})
	}
	// Keep only the newest fragment per origin site. Staleness — and
	// the phantom defect — persists regardless, because fragments from
	// different sites were sampled at different instants.
	pp.stored[report.Site] = paths
}

// round runs one path-pushing evaluation at a site.
func (pp *PathPushing) round(site id.Site) {
	pp.mu.Lock()
	stopped := pp.stopped
	pp.mu.Unlock()
	if stopped {
		return
	}
	ctrl := pp.cluster.Controllers[site]
	local := ctrl.LocalEdges()

	// Transaction-level local edges at this site, plus the exits: a
	// transaction whose wait leaves the site, with the site it goes to.
	// adjSet dedupes — fragments echo between sites, and without set
	// semantics the echoed duplicates would compound every round.
	adjSet := make(map[id.Txn]map[id.Txn]struct{})
	addEdge := func(from, to id.Txn) {
		if from == to {
			return
		}
		s, ok := adjSet[from]
		if !ok {
			s = make(map[id.Txn]struct{})
			adjSet[from] = s
		}
		s[to] = struct{}{}
	}
	exits := make(map[id.Txn][]id.Site)
	for _, e := range local {
		if e.From.Site == site && e.To.Site == site {
			addEdge(e.From.Txn, e.To.Txn)
			continue
		}
		if e.From.Site == site {
			exits[e.From.Txn] = append(exits[e.From.Txn], e.To.Site)
			// Holder-home / acquisition edges also imply a
			// transaction-level wait usable locally.
			addEdge(e.From.Txn, e.To.Txn)
		}
	}
	// Splice stored fragments (possibly stale — the defect under test).
	pp.mu.Lock()
	for _, paths := range pp.stored {
		for _, path := range paths {
			for i := 0; i+1 < len(path); i++ {
				addEdge(path[i], path[i+1])
			}
		}
	}
	pp.mu.Unlock()
	adj := make(map[id.Txn][]id.Txn, len(adjSet))
	//det:unordered adjacency lists feed only cycle tests and the sorted report
	for from, succs := range adjSet {
		//det:unordered adjacency lists feed only cycle tests and the sorted report
		for to := range succs {
			adj[from] = append(adj[from], to)
		}
	}

	// Cycle search over the union.
	victims := pp.findVictims(adj)
	for _, v := range victims {
		onCycle := false
		for _, a := range pp.cluster.Oracle.DeadlockedAgents() {
			if a.Txn == v {
				onCycle = true
				break
			}
		}
		pp.mu.Lock()
		pp.declarations = append(pp.declarations, Declaration{Txn: v, True: onCycle})
		pp.mu.Unlock()
		if pp.resolve {
			ctrl.Abort(v)
		}
	}

	// Push this site's condensed transaction-level fragment to every
	// site some local wait exits toward: the chains ending in an
	// exiting transaction are exactly what the destination needs to
	// close (or phantom-close) a cycle with its own half. One report
	// per (round, destination), carrying 2-transaction hops.
	exitSet := make(map[id.Site]struct{})
	for _, sites := range exits {
		for _, sx := range sites {
			if sx != site {
				exitSet[sx] = struct{}{}
			}
		}
	}
	exitSites := make([]id.Site, 0, len(exitSet))
	for sx := range exitSet {
		exitSites = append(exitSites, sx)
	}
	sort.Slice(exitSites, func(i, j int) bool { return exitSites[i] < exitSites[j] })
	if len(exitSites) > 0 {
		var edges []id.AgentEdge
		for from, succs := range adj {
			for _, to := range succs {
				edges = append(edges, id.AgentEdge{
					From: id.Agent{Txn: from, Site: site},
					To:   id.Agent{Txn: to, Site: site},
				})
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].From.Txn != edges[j].From.Txn {
				return edges[i].From.Txn < edges[j].From.Txn
			}
			return edges[i].To.Txn < edges[j].To.Txn
		})
		if len(edges) > 0 {
			for _, sx := range exitSites {
				pp.mu.Lock()
				pp.pathsSent++
				pp.mu.Unlock()
				pp.cluster.Net.Send(transport.NodeID(site), pp.nodes[int(sx)], msg.BaselineReport{Site: site, Edges: edges})
			}
		}
	}

	pp.cluster.Sched.After(pp.period, func() { pp.round(site) })
}

// findVictims returns one victim per cycle in adj, skipping transactions
// already declared in a live episode.
func (pp *PathPushing) findVictims(adj map[id.Txn][]id.Txn) []id.Txn {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	var victims []id.Txn
	for v := range adj {
		if pp.declaredLive[v] {
			continue
		}
		if txnOnCycle(adj, v) {
			pp.declaredLive[v] = true
			victims = append(victims, v)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	// Expire declared markers for transactions that no longer wait.
	for txn := range pp.declaredLive {
		if _, waits := adj[txn]; !waits {
			delete(pp.declaredLive, txn)
		}
	}
	return victims
}

func txnOnCycle(adj map[id.Txn][]id.Txn, v id.Txn) bool {
	seen := map[id.Txn]struct{}{}
	stack := []id.Txn{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[u] {
			if w == v {
				return true
			}
			if _, dup := seen[w]; !dup {
				seen[w] = struct{}{}
				stack = append(stack, w)
			}
		}
	}
	return false
}

// Declarations returns a copy of all verdicts so far.
func (pp *PathPushing) Declarations() []Declaration {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	out := make([]Declaration, len(pp.declarations))
	copy(out, pp.declarations)
	return out
}

// FalseCount returns the number of oracle-refuted declarations.
func (pp *PathPushing) FalseCount() int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	n := 0
	for _, d := range pp.declarations {
		if !d.True {
			n++
		}
	}
	return n
}

// PathsSent returns the number of path reports pushed between sites.
func (pp *PathPushing) PathsSent() int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.pathsSent
}
