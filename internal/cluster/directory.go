package cluster

import (
	"sync"

	"repro/internal/transport"
)

// Directory is a host's replicated view of the cluster: the versioned
// member map, the placement ring derived from it, and the routing
// overrides produced by migrations. It implements
// transport.PlacementResolver, so the TCP transport resolves every
// outbound frame's destination host through it — any node addresses
// any process with no hand-wired topology at all.
//
// Route resolution order for a process id:
//
//  1. negative ids are host agents: process -h lives on host h by
//     construction (the agent pseudo-node convention);
//  2. a committed routing override — a migration moved the process off
//     its ring placement;
//  3. the consistent-hash ring over the alive member set.
//
// Pending routes never influence resolution: a sender learning of a
// move keeps using the old path until its flush marker round-trips,
// which is what makes the re-route order-safe (DESIGN.md §12.3).
type Directory struct {
	mu        sync.Mutex
	self      transport.NodeID
	members   MemberMap
	ring      *Ring
	committed map[transport.NodeID]Route
	pending   map[transport.NodeID]Route
}

// NewDirectory creates a directory whose first member is this host
// itself, alive at addr with incarnation inc (the engine's recovery
// incarnation, so a restarted host supersedes its former self in the
// map exactly as its streams do on the wire).
func NewDirectory(self transport.NodeID, addr string, inc uint64) *Directory {
	d := &Directory{
		self:      self,
		members:   MemberMap{},
		committed: map[transport.NodeID]Route{},
		pending:   map[transport.NodeID]Route{},
	}
	d.members[self] = Member{Host: self, Addr: addr, Inc: inc, Ver: 1, Status: StatusAlive}
	d.ring = BuildRing(d.members.Alive())
	return d
}

// Self returns this host's id.
func (d *Directory) Self() transport.NodeID { return d.self }

// Lookup resolves the host currently owning node. ok is false only
// when no alive member exists (an empty ring).
func (d *Directory) Lookup(node transport.NodeID) (transport.NodeID, bool) {
	return d.HostOf(node)
}

// HostOf implements transport.PlacementResolver.
func (d *Directory) HostOf(node transport.NodeID) (transport.NodeID, bool) {
	if node < 0 {
		return -node, true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if r, ok := d.committed[node]; ok {
		return r.Host, true
	}
	return d.ring.Lookup(node)
}

// AddrOf implements transport.PlacementResolver: the dial address for
// a host, from the member map.
func (d *Directory) AddrOf(host transport.NodeID) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.members[host]
	if !ok || m.Addr == "" {
		return "", false
	}
	return m.Addr, true
}

// Merge folds gossiped member entries in, rebuilding the ring when the
// alive set changed. Returns whether anything in the map changed (the
// gossip loop uses it to decide whether its view is still moving).
func (d *Directory) Merge(in []Member) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.members.Merge(in) {
		return false
	}
	d.ring = BuildRing(d.members.Alive())
	return true
}

// MergeRoutes folds gossiped routing overrides in. Routes newer than
// what this host has committed become pending and are returned — the
// agent must run the flush protocol for each before the directory will
// route by them. A route already pending at the same version is not
// returned again.
func (d *Directory) MergeRoutes(in []Route) []Route {
	d.mu.Lock()
	defer d.mu.Unlock()
	var fresh []Route
	for _, r := range in {
		if r.Node <= 0 || r.Host <= 0 {
			continue
		}
		if cur, ok := d.committed[r.Node]; ok && r.Ver <= cur.Ver {
			continue
		}
		if p, ok := d.pending[r.Node]; ok && r.Ver <= p.Ver {
			continue
		}
		d.pending[r.Node] = r
		fresh = append(fresh, r)
	}
	return fresh
}

// CommitRoute installs a routing override immediately: the migration
// source and target call it at the cut and the install — they are on
// the move's own FIFO path and need no flush — and every other host
// calls it when its flush marker acknowledges. Stale versions are
// ignored.
func (d *Directory) CommitRoute(r Route) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.committed[r.Node]; ok && r.Ver <= cur.Ver {
		return
	}
	d.committed[r.Node] = r
	if p, ok := d.pending[r.Node]; ok && p.Ver <= r.Ver {
		delete(d.pending, r.Node)
	}
}

// PendingRoute returns the pending override for node, if any.
func (d *Directory) PendingRoute(node transport.NodeID) (Route, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.pending[node]
	return r, ok
}

// RouteVer returns the committed override version for node, 0 if the
// process has never migrated. The next migration publishes Ver+1.
func (d *Directory) RouteVer(node transport.NodeID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.committed[node].Ver
}

// Members returns the member map in canonical (host-sorted) order —
// the gossip payload.
func (d *Directory) Members() []Member {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.members.Snapshot()
}

// Routes returns the committed overrides sorted by node — canonical
// order for gossip payloads, tests, and the fingerprint.
func (d *Directory) Routes() []Route {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.routesLocked()
}

func (d *Directory) routesLocked() []Route {
	out := make([]Route, 0, len(d.committed))
	for _, r := range d.committed {
		out = append(out, r)
	}
	for i := 1; i < len(out); i++ { // tiny n: insertion sort, no extra imports
		for j := i; j > 0 && out[j-1].Node > out[j].Node; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// AliveHosts returns the sorted alive member ids.
func (d *Directory) AliveHosts() []transport.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.members.Alive()
}

// MarkLeft records a leave tombstone for host. When host is self this
// is the graceful-shutdown announcement: the entry's version bumps so
// the tombstone supersedes every alive entry already gossiped.
func (d *Directory) MarkLeft(host transport.NodeID) {
	d.setStatus(host, StatusLeft)
}

func (d *Directory) setStatus(host transport.NodeID, s Status) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.members[host]
	if !ok || m.Status == s {
		return
	}
	m.Status = s
	m.Ver++
	d.members[host] = m
	d.ring = BuildRing(d.members.Alive())
}

// Fingerprint hashes the canonical member map and committed routes —
// two directories agree on placement iff their fingerprints match,
// which is what join convergence polls for.
func (d *Directory) Fingerprint() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var b []byte
	u64 := func(v uint64) {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	for _, m := range d.members.Snapshot() {
		u64(uint64(uint32(m.Host)))
		u64(uint64(len(m.Addr)))
		b = append(b, m.Addr...)
		u64(m.Inc)
		u64(m.Ver)
		b = append(b, byte(m.Status))
	}
	for _, r := range d.routesLocked() {
		u64(uint64(uint32(r.Node)))
		u64(uint64(uint32(r.Host)))
		u64(r.Ver)
	}
	return fnv1a64(b)
}
