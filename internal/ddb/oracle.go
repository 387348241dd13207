package ddb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/id"
)

// Oracle builds the global, omniscient wait-for graph over every
// controller in a cluster and answers ground-truth deadlock queries for
// the correctness experiments. Like the basic-model oracle (package
// wfg) it is never consulted by the algorithm itself — only by tests
// and the benchmark harness.
type Oracle struct {
	controllers []*Controller
}

// NewOracle returns an oracle over the given controllers.
func NewOracle(controllers []*Controller) *Oracle {
	return &Oracle{controllers: controllers}
}

// DarkEdges returns the current global set of dark (grey-or-black)
// wait-for edges: intra-controller edges, acquisition edges whose grant
// has not yet been sent, and holder-home edges whose holding
// transaction is still running. Controllers are locked one at a time;
// in the single-threaded simulation this yields an exact instantaneous
// snapshot.
func (o *Oracle) DarkEdges() []id.AgentEdge {
	// Pass 1: collect per-controller state under each lock.
	type agentView struct {
		site   id.Site
		txn    id.Txn
		home   id.Site
		held   map[id.Resource]bool
		alive  bool // home transaction running (home agents only)
		isHome bool
	}
	agentsBySite := make(map[id.Site]map[id.Txn]*agentView)
	type pendingView struct {
		txn      id.Txn
		from, to id.Site
		resource id.Resource
	}
	var pendings []pendingView
	type waitView struct {
		site     id.Site
		txn      id.Txn
		resource id.Resource
		holders  []id.Txn
	}
	var waits []waitView

	for _, c := range o.controllers {
		c := c
		c.run.Exec(func() {
			site := c.cfg.Site
			views := make(map[id.Txn]*agentView, len(c.agents))
			for txn, a := range c.agents {
				v := &agentView{site: site, txn: txn, home: a.home, held: make(map[id.Resource]bool, len(a.held))}
				for _, h := range a.held {
					v.held[h.key] = true
				}
				if ts, home := c.txns[txn]; home {
					v.isHome = true
					v.alive = ts.status == TxnRunning
				}
				views[txn] = v
			}
			agentsBySite[site] = views
			//det:unordered pendings only feed edges, which are sorted before return
			for txn, ts := range c.txns {
				if ts.status != TxnRunning {
					continue
				}
				for _, p := range ts.pendingRemote {
					pendings = append(pendings, pendingView{txn: txn, from: site, to: p.val, resource: p.key})
				}
			}
			for _, wp := range c.locks.waitPairs() {
				waits = append(waits, waitView{
					site:     site,
					txn:      wp.txn,
					resource: wp.resource,
					holders:  c.locks.holdersOf(wp.resource),
				})
			}
		})
	}

	// Pass 2: derive dark edges from the snapshot.
	var edges []id.AgentEdge
	for _, w := range waits {
		from := id.Agent{Txn: w.txn, Site: w.site}
		for _, h := range w.holders {
			hv := agentsBySite[w.site][h]
			if hv == nil {
				continue
			}
			edges = append(edges, id.AgentEdge{From: from, To: id.Agent{Txn: h, Site: w.site}})
			if hv.home != w.site {
				// Holder is a remote agent: the wait chains to its home
				// transaction, dark while that transaction runs.
				homeViews := agentsBySite[hv.home]
				if homeViews != nil {
					if homeAgent := homeViews[h]; homeAgent != nil && homeAgent.alive {
						edges = append(edges, id.AgentEdge{From: from, To: id.Agent{Txn: h, Site: hv.home}})
					}
				}
			}
		}
	}
	for _, p := range pendings {
		// The acquisition edge is white once the remote side has sent
		// the grant, i.e. once the remote agent holds the resource.
		remote := agentsBySite[p.to][p.txn]
		if remote != nil && remote.held[p.resource] {
			continue
		}
		edges = append(edges, id.AgentEdge{
			From: id.Agent{Txn: p.txn, Site: p.from},
			To:   id.Agent{Txn: p.txn, Site: p.to},
		})
	}
	sortAgentEdges(edges)
	return edges
}

// DeadlockedAgents returns the sorted agents on at least one dark
// cycle.
func (o *Oracle) DeadlockedAgents() []id.Agent {
	edges := o.DarkEdges()
	adj := make(map[id.Agent][]id.Agent)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	var out []id.Agent
	for v := range adj {
		if onAgentCycle(adj, v) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Txn != out[j].Txn {
			return out[i].Txn < out[j].Txn
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// DeadlockedTxns returns the sorted transactions with at least one
// agent on a dark cycle.
func (o *Oracle) DeadlockedTxns() []id.Txn {
	seen := make(map[id.Txn]struct{})
	for _, a := range o.DeadlockedAgents() {
		seen[a.Txn] = struct{}{}
	}
	out := make([]id.Txn, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OnCycle reports whether the given agent currently lies on a dark
// cycle.
func (o *Oracle) OnCycle(a id.Agent) bool {
	edges := o.DarkEdges()
	adj := make(map[id.Agent][]id.Agent)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	return onAgentCycle(adj, a)
}

// DOT renders the current global dark wait-for graph in Graphviz dot
// syntax, clustered by site, with deadlocked agents highlighted.
func (o *Oracle) DOT() string {
	edges := o.DarkEdges()
	dead := make(map[id.Agent]bool)
	for _, a := range o.DeadlockedAgents() {
		dead[a] = true
	}
	bySite := make(map[id.Site][]id.Agent)
	seen := make(map[id.Agent]bool)
	for _, e := range edges {
		for _, a := range []id.Agent{e.From, e.To} {
			if !seen[a] {
				seen[a] = true
				bySite[a.Site] = append(bySite[a.Site], a)
			}
		}
	}
	var sites []id.Site
	for s := range bySite {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })

	var b strings.Builder
	b.WriteString("digraph ddbwaitfor {\n  rankdir=LR;\n  node [shape=box];\n")
	for _, s := range sites {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=%q;\n", int(s), s.String())
		agents := bySite[s]
		sort.Slice(agents, func(i, j int) bool { return agents[i].Txn < agents[j].Txn })
		for _, a := range agents {
			attrs := ""
			if dead[a] {
				attrs = " [style=filled, fillcolor=\"#ffdddd\"]"
			}
			fmt.Fprintf(&b, "    %q%s;\n", a.String(), attrs)
		}
		b.WriteString("  }\n")
	}
	for _, e := range edges {
		style := "solid"
		if !e.Intra() {
			style = "bold"
		}
		fmt.Fprintf(&b, "  %q -> %q [style=%s];\n", e.From.String(), e.To.String(), style)
	}
	b.WriteString("}\n")
	return b.String()
}

// onAgentCycle reports whether v can reach itself in adj.
func onAgentCycle(adj map[id.Agent][]id.Agent, v id.Agent) bool {
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
