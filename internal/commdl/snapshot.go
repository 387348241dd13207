package commdl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/id"
)

// Snapshot renders the process's algorithmic state canonically for the
// explorer's state fingerprint: blocking status, dependent set, the
// per-initiator diffusing-computation table and the declaration latch.
// Traffic counters are excluded.
func (p *Process) Snapshot() string {
	var out string
	p.run.Exec(func() { out = p.snapshotStep() })
	return out
}

// snapshotStep renders the state from within the serialized step.
func (p *Process) snapshotStep() string {
	var b strings.Builder
	fmt.Fprintf(&b, "comm/%d{b:%t ep:%d seq:%d decl:%t deps:[", p.cfg.ID, p.blocked, p.episode, p.nextSeq, p.declared)
	for _, d := range p.sortedDependentsStep() {
		fmt.Fprintf(&b, "%d;", d)
	}
	b.WriteString("] comps:[")
	inits := make([]id.Proc, 0, len(p.comps))
	for k := range p.comps {
		inits = append(inits, k)
	}
	sort.Slice(inits, func(i, j int) bool { return inits[i] < inits[j] })
	for _, k := range inits {
		cs := p.comps[k]
		fmt.Fprintf(&b, "%d=(%d,%d,%t,%d);", k, cs.latest, cs.engager, cs.wait, cs.num)
	}
	b.WriteString("]}")
	return b.String()
}
