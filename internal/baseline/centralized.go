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

// Coordinator is the centralized comparison detector: every site ships
// its local wait-for fragment to one coordinator node on a period, the
// coordinator unions the latest report from each site and searches the
// union for cycles. Because the fragments are sampled at different
// instants, the union can contain a cycle that never existed at any
// single instant — the classic phantom-deadlock defect of centralized
// schemes, which experiment E7 measures.
type Coordinator struct {
	cluster *ddb.Cluster
	node    transport.NodeID
	period  sim.Duration
	resolve bool
	homeOf  func(id.Txn) (id.Site, bool)

	mu           sync.Mutex
	reports      map[id.Site][]id.AgentEdge
	declaredLive map[id.Txn]bool // declared and not yet observed clear
	declarations []Declaration
	reportsSent  int
	stopped      bool
}

// NewCoordinator attaches a centralized detector to the cluster: it
// registers itself as transport node len(Controllers) and starts the
// per-site reporting loops on the cluster scheduler. homeOf resolves a
// victim transaction's home site for resolution aborts.
func NewCoordinator(cl *ddb.Cluster, period sim.Duration, resolve bool, homeOf func(id.Txn) (id.Site, bool)) *Coordinator {
	co := &Coordinator{
		cluster:      cl,
		node:         transport.NodeID(len(cl.Controllers)),
		period:       period,
		resolve:      resolve,
		homeOf:       homeOf,
		reports:      make(map[id.Site][]id.AgentEdge),
		declaredLive: make(map[id.Txn]bool),
	}
	cl.Net.Register(co.node, co)
	for i := range cl.Controllers {
		site := id.Site(i)
		// Stagger the first reports so sites sample at different
		// instants, as independent site clocks would.
		offset := sim.Duration(int64(i)) * period / sim.Duration(int64(len(cl.Controllers)))
		cl.Sched.After(offset, func() { co.reportLoop(site) })
	}
	return co
}

// Stop halts future reporting (pending timers become no-ops).
func (co *Coordinator) Stop() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.stopped = true
}

// reportLoop ships one report for a site and reschedules itself.
func (co *Coordinator) reportLoop(site id.Site) {
	co.mu.Lock()
	stopped := co.stopped
	co.mu.Unlock()
	if stopped {
		return
	}
	edges := co.cluster.Controllers[site].LocalEdges()
	co.mu.Lock()
	co.reportsSent++
	co.mu.Unlock()
	co.cluster.Net.Send(transport.NodeID(site), co.node, msg.BaselineReport{Site: site, Edges: edges})
	co.cluster.Sched.After(co.period, func() { co.reportLoop(site) })
}

// HandleMessage implements transport.Handler: store the site's latest
// fragment and re-evaluate the union.
func (co *Coordinator) HandleMessage(_ transport.NodeID, m msg.Message) {
	report, ok := m.(msg.BaselineReport)
	if !ok {
		return
	}
	co.mu.Lock()
	co.reports[report.Site] = report.Edges
	adj := make(map[id.Agent][]id.Agent)
	waitingTxns := make(map[id.Txn]bool)
	//det:unordered adjacency lists feed only cycle tests
	for _, edges := range co.reports {
		for _, e := range edges {
			adj[e.From] = append(adj[e.From], e.To)
			waitingTxns[e.From.Txn] = true
		}
	}
	// A transaction that no longer appears waiting in any fragment can
	// be re-declared later (its previous episode ended).
	for txn := range co.declaredLive {
		if !waitingTxns[txn] {
			delete(co.declaredLive, txn)
		}
	}
	victims := co.findCycleVictimsLocked(adj)
	co.mu.Unlock()

	for _, v := range victims {
		onCycle := false
		for _, a := range co.cluster.Oracle.DeadlockedAgents() {
			if a.Txn == v {
				onCycle = true
				break
			}
		}
		co.mu.Lock()
		co.declarations = append(co.declarations, Declaration{Txn: v, True: onCycle})
		co.mu.Unlock()
		if co.resolve {
			if home, ok := co.homeOf(v); ok {
				co.cluster.Net.Send(co.node, transport.NodeID(home), msg.CtrlAbort{Txn: v})
			}
		}
	}
}

// findCycleVictimsLocked returns one victim per cycle found in the
// union graph, skipping transactions already declared in this waiting
// episode. Caller holds co.mu.
func (co *Coordinator) findCycleVictimsLocked(adj map[id.Agent][]id.Agent) []id.Txn {
	var victims []id.Txn
	for v := range adj {
		if co.declaredLive[v.Txn] {
			continue
		}
		if onUnionCycle(adj, v) {
			co.declaredLive[v.Txn] = true
			victims = append(victims, v.Txn)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	return victims
}

// onUnionCycle reports whether v reaches itself in adj.
func onUnionCycle(adj map[id.Agent][]id.Agent, v id.Agent) bool {
	seen := map[id.Agent]struct{}{}
	stack := []id.Agent{v}
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
func (co *Coordinator) Declarations() []Declaration {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]Declaration, len(co.declarations))
	copy(out, co.declarations)
	return out
}

// FalseCount returns the number of oracle-refuted declarations.
func (co *Coordinator) FalseCount() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	n := 0
	for _, dec := range co.declarations {
		if !dec.True {
			n++
		}
	}
	return n
}

// ReportsSent returns how many fragment reports sites have shipped.
func (co *Coordinator) ReportsSent() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.reportsSent
}

var _ transport.Handler = (*Coordinator)(nil)
