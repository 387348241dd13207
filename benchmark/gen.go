package main

import (
	"math/rand"

	"repro/internal/ddb"
	"repro/internal/id"
	"repro/internal/msg"
)

// generator turns a seed into transaction scripts: a uniform home site
// and minLocks..maxLocks distinct uniform keys in draw order (unsorted
// acquisition is what makes deadlock possible), each exclusive with
// probability writeFrac. The seed feeds nothing else, so one seed always
// yields the same script sequence; how far a run gets into it depends on
// the system's speed.
type generator struct {
	rng *rand.Rand
	mix txnMix
}

func newGenerator(seed int64, mix txnMix) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), mix: mix}
}

func (g *generator) next() (id.Site, []ddb.LockStep) {
	home := id.Site(g.rng.Intn(numSites))
	n := g.mix.minLocks + g.rng.Intn(g.mix.maxLocks-g.mix.minLocks+1)
	steps := make([]ddb.LockStep, 0, n)
	for len(steps) < n {
		k := id.Resource(g.rng.Int63n(g.mix.keys))
		dup := false
		for _, s := range steps {
			dup = dup || s.Resource == k
		}
		if dup {
			continue
		}
		mode := msg.LockRead
		if g.rng.Float64() < g.mix.writeFrac {
			mode = msg.LockWrite
		}
		steps = append(steps, ddb.LockStep{Resource: k, Mode: mode})
	}
	return home, steps
}

// resourceHome is the fixed key placement: key k lives at site k % 48.
func resourceHome(r id.Resource) id.Site { return id.Site(int(r) % numSites) }
