package wfg

import (
	"sort"

	"repro/internal/id"
)

// This file holds the omniscient oracle queries used to verify the
// distributed algorithm: dark-cycle membership (the defining property of
// deadlock, §2.4), black-cycle membership (what QRP2 promises at the
// instant of detection), the permanently-blocked set, and the
// permanent-black-path edge sets that the WFGD computation of §5 must
// reproduce at every deadlocked vertex.

// OnDarkCycle reports whether v lies on a cycle all of whose edges are
// grey or black. A dark cycle persists forever (§2.4), so this is the
// ground-truth definition of "v is deadlocked".
func (g *Graph) OnDarkCycle(v id.Proc) bool {
	scc := g.darkSCCs()
	comp, ok := scc.comp[v]
	if !ok {
		return false
	}
	return scc.cyclic[comp]
}

// OnBlackCycle reports whether v lies on a cycle all of whose edges are
// black. Theorem 2 guarantees the initiator is on a black cycle at the
// moment it receives a meaningful probe; the correctness experiments
// check declared deadlocks against this query.
func (g *Graph) OnBlackCycle(v id.Proc) bool {
	return g.onCycle(v, func(e id.Edge) bool {
		c, ok := g.colors[e]
		return ok && c == Black
	})
}

// onCycle reports whether v can reach itself through edges accepted by
// keep.
func (g *Graph) onCycle(v id.Proc, keep func(id.Edge) bool) bool {
	seen := map[id.Proc]struct{}{}
	stack := []id.Proc{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		//det:unordered a reachability worklist: the answer is a bool
		for w := range g.out[u] {
			if !keep(id.Edge{From: u, To: w}) {
				continue
			}
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

// DarkCycleVertices returns the sorted set of vertices lying on at
// least one dark cycle.
func (g *Graph) DarkCycleVertices() []id.Proc {
	scc := g.darkSCCs()
	var out []id.Proc
	for v, c := range scc.comp {
		if scc.cyclic[c] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PermanentlyBlocked returns the sorted set of vertices that can never
// become active again: vertices on dark cycles, plus every vertex with a
// dark edge to a permanently blocked vertex (in the AND model a single
// unanswerable request blocks the process forever).
func (g *Graph) PermanentlyBlocked() []id.Proc {
	blocked := g.permanentlyBlockedSet()
	out := make([]id.Proc, 0, len(blocked))
	for v := range blocked {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *Graph) permanentlyBlockedSet() map[id.Proc]struct{} {
	scc := g.darkSCCs()
	blocked := make(map[id.Proc]struct{})
	var seeds []id.Proc
	//det:unordered a reachability worklist: the result is a set
	for v, c := range scc.comp {
		if scc.cyclic[c] {
			blocked[v] = struct{}{}
			seeds = append(seeds, v)
		}
	}
	// Walk dark edges backwards from the cyclic cores.
	for len(seeds) > 0 {
		v := seeds[len(seeds)-1]
		seeds = seeds[:len(seeds)-1]
		//det:unordered a reachability worklist: the result is a set
		for u := range g.in[v] {
			if !g.Dark(id.Edge{From: u, To: v}) {
				continue
			}
			if _, dup := blocked[u]; !dup {
				blocked[u] = struct{}{}
				seeds = append(seeds, u)
			}
		}
	}
	return blocked
}

// PermanentBlackEdgesFrom returns the sorted edges on permanent black
// paths leading from v: paths all of whose edges are black and whose
// every edge points at a permanently blocked vertex, so no edge on the
// path can ever whiten (§5). This is the set S_v that the WFGD
// computation must deliver to v.
func (g *Graph) PermanentBlackEdgesFrom(v id.Proc) []id.Edge {
	blocked := g.permanentlyBlockedSet()
	permanent := func(e id.Edge) bool {
		c, ok := g.colors[e]
		if !ok || c != Black {
			return false
		}
		_, dead := blocked[e.To]
		return dead
	}
	var out []id.Edge
	seen := map[id.Proc]struct{}{v: {}}
	stack := []id.Proc{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		//det:unordered a reachability worklist: out is sorted before return
		for w := range g.out[u] {
			e := id.Edge{From: u, To: w}
			if !permanent(e) {
				continue
			}
			out = append(out, e)
			if _, dup := seen[w]; !dup {
				seen[w] = struct{}{}
				stack = append(stack, w)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// sccResult maps each vertex to its dark-edge strongly connected
// component and records which components contain a cycle.
type sccResult struct {
	comp   map[id.Proc]int
	cyclic map[int]bool
}

// darkSCCs runs Tarjan's algorithm over the subgraph of dark edges,
// iteratively to avoid recursion depth limits on long chains.
func (g *Graph) darkSCCs() sccResult {
	index := make(map[id.Proc]int)
	low := make(map[id.Proc]int)
	onStack := make(map[id.Proc]bool)
	comp := make(map[id.Proc]int)
	cyclic := make(map[int]bool)
	var stack []id.Proc
	next := 0
	ncomp := 0

	type frame struct {
		v     id.Proc
		succs []id.Proc
		i     int
	}

	darkSuccs := func(v id.Proc) []id.Proc {
		var out []id.Proc
		for w := range g.out[v] {
			if g.Dark(id.Edge{From: v, To: w}) {
				out = append(out, w)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	vertices := make([]id.Proc, 0, len(g.out))
	for v := range g.out {
		vertices = append(vertices, v)
	}
	sort.Slice(vertices, func(i, j int) bool { return vertices[i] < vertices[j] })

	for _, root := range vertices {
		if _, visited := index[root]; visited {
			continue
		}
		frames := []frame{{v: root, succs: darkSuccs(root)}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succs) {
				w := f.succs[f.i]
				f.i++
				if _, visited := index[w]; !visited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, succs: darkSuccs(w)})
				} else if onStack[w] {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			// All successors explored: maybe pop an SCC, then return.
			if low[f.v] == index[f.v] {
				size := 0
				selfLoop := false
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					size++
					if w == f.v {
						break
					}
				}
				if g.Dark(id.Edge{From: f.v, To: f.v}) {
					selfLoop = true
				}
				cyclic[ncomp] = size > 1 || selfLoop
				ncomp++
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[v] < low[parent.v] {
					low[parent.v] = low[v]
				}
			}
		}
	}
	return sccResult{comp: comp, cyclic: cyclic}
}
