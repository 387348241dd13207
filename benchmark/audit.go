package main

import (
	"fmt"
	"time"

	"repro/internal/ddb"
	"repro/internal/id"
)

// auditMix packs the workload's lock counts onto few keys so a short leg
// is certain to deadlock.
func auditMix(w workload) txnMix {
	return txnMix{keys: 96, minLocks: w.mix.minLocks + 1, maxLocks: w.mix.maxLocks + 1, writeFrac: 0.5}
}

// audit is the output check run before any metric is trusted: the
// workload's own topology with victim "none", so deadlocks stand, driven
// until nothing moves; then the omniscient oracle must confirm every
// declaration (QRP2: nothing declared falsely) and find a declared agent
// on every dark cycle (QRP1: every deadlock declared).
func audit(w workload, cfg runConfig, res *result) error {
	aw := w
	aw.mix = auditMix(w)
	const clients = 32
	d := newDriver(cfg.seed, aw, clients, nil)
	st, err := assemble(stackConfig{cluster: w.cluster, fsync: w.fsync, resolve: false, outDir: cfg.outDir}, d.hooks())
	if err != nil {
		return fmt.Errorf("%s: audit assemble: %w", w.name, err)
	}
	defer st.close()
	d.st = st
	// Quiescent once nothing has committed for 40 T: every wait timer has
	// fired and every probe computation has run its course.
	r := d.runPhase(phase{clients: clients, maxTxns: cfg.plan.auditTxns, idle: 40 * delayT})
	time.Sleep(4 * delayT)

	oracle := ddb.NewOracle(st.ctrls)
	falseDecl, uncovered := checkDeclarations(oracle.DarkEdges(), d.declared)
	res.attempted += int64(len(d.declared)) + 1
	if falseDecl > 0 {
		res.fail(int64(falseDecl), "audit: %d of %d declarations are not on a dark cycle", falseDecl, len(d.declared))
	}
	if uncovered > 0 {
		res.fail(int64(uncovered), "audit: %d dark cycles hold no declared agent", uncovered)
	}
	if r.stuck > 0 && len(d.declared) == 0 {
		res.fail(1, "audit: %d transactions stuck but nothing was declared", r.stuck)
	}
	res.layer("ddb.audit_declarations", float64(len(d.declared)), "count", int(r.submitted))
	res.layer("ddb.false_declarations", float64(falseDecl), "count", len(d.declared))
	res.layer("ddb.uncovered_cycles", float64(uncovered), "count", len(d.declared))
	return nil
}

// checkDeclarations audits declarations against a dark wait-for graph at
// quiescence: how many declared agents lie on no cycle, and how many
// cyclic strongly connected components contain no declared agent.
func checkDeclarations(edges []id.AgentEdge, declared []id.Agent) (falseDecl, uncovered int) {
	fwd := map[id.Agent][]id.Agent{}
	rev := map[id.Agent][]id.Agent{}
	for _, e := range edges {
		fwd[e.From] = append(fwd[e.From], e.To)
		rev[e.To] = append(rev[e.To], e.From)
	}
	// component returns a's strongly connected component when it is
	// cyclic: the agents a reaches that also reach a.
	component := func(a id.Agent) map[id.Agent]bool {
		down, up := reach(fwd, a), reach(rev, a)
		scc := map[id.Agent]bool{}
		for v := range down {
			if up[v] {
				scc[v] = true
			}
		}
		return scc // reach excludes the start unless a path returns to it
	}
	covered := map[id.Agent]bool{}
	for _, a := range declared {
		if covered[a] {
			continue
		}
		scc := component(a)
		if !scc[a] {
			falseDecl++
			continue
		}
		for v := range scc {
			covered[v] = true
		}
	}
	for a := range fwd {
		if covered[a] {
			continue
		}
		if scc := component(a); scc[a] {
			uncovered++
			for v := range scc {
				covered[v] = true
			}
		}
	}
	return falseDecl, uncovered
}

// reach returns every vertex reachable from a by at least one edge.
func reach(adj map[id.Agent][]id.Agent, a id.Agent) map[id.Agent]bool {
	seen := map[id.Agent]bool{}
	stack := []id.Agent{a}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}
