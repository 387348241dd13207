// Package conformance is the differential transport-conformance suite:
// it replays the identical seeded workload over every runtime the
// repository ships — the deterministic simulated network, one engine
// Host per process over real loopback TCP sockets, sharded engine
// Hosts alone and bridged over TCP — and demands byte-identical
// verdicts from all of them, each verdict additionally cross-checked
// against the omniscient WFG oracle.
//
// The workload is built so its outcome is a pure function of the seed,
// not of message timing, which is what makes a byte-for-byte comparison
// across wildly different schedulers legitimate:
//
//  1. Storm: every process issues its seeded request batch while all
//     grants are gated off. The resulting request graph is static.
//  2. Sweep: the gate opens and every active process answers all its
//     pending requests; processes that unblock answer theirs in turn.
//     The cascade's fixed point — the permanently blocked set — is the
//     transitive pre-image of the request graph's cycles, independent
//     of delivery order.
//  3. Probe: every still-blocked process initiates a probe computation.
//     By the theorems checked exhaustively in internal/explore (QRP1,
//     QRP2, WFGD exactness — over every FIFO schedule of the small
//     corpus), the declared set and the per-process black-path sets at
//     quiescence are schedule-independent too.
//
// One driver runs the three phases for every leg; legs differ only in
// the topology the processes step on and in the steps a leg adds
// between phases (a crash, a migration, a fault plan). Each phase runs
// to quiescence: the simulator drains its event queue; the concurrent
// topologies are polled until sent == delivered holds stably (messages
// only beget messages from handlers, so a stable equality means the
// system is idle).
package conformance

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wfg"
	"repro/internal/workload"
)

// Spec seeds one conformance workload.
type Spec struct {
	// Seed drives the request-batch generation.
	Seed int64
	// N is the number of processes.
	N int
	// MaxBatch is the largest request batch a process may issue (each
	// process draws its batch size uniformly from [0, MaxBatch]).
	MaxBatch int
}

// Batches expands the spec into per-process request batches — the pure
// function of the seed every transport replays.
func (s Spec) Batches() [][]id.Proc {
	rng := rand.New(rand.NewSource(s.Seed))
	out := make([][]id.Proc, s.N)
	for i := range out {
		k := rng.Intn(s.MaxBatch + 1)
		if k == 0 {
			continue
		}
		// Distinct targets, excluding self, in drawn order.
		perm := rng.Perm(s.N - 1)
		if k > len(perm) {
			k = len(perm)
		}
		batch := make([]id.Proc, 0, k)
		for _, t := range perm[:k] {
			if t >= i {
				t++ // skip self
			}
			batch = append(batch, id.Proc(t))
		}
		out[i] = batch
	}
	return out
}

// driver owns one spec's processes and runs the three-phase workload
// on them. It holds the current instance of each process (a crash
// rebuild, a restart or a migration replaces it), which processes are
// alive, and the grant gate every process's service callback reads.
type driver struct {
	spec    Spec
	oracle  *wfg.GraphObserver
	quiesce func() error
	// counters is the concurrent legs' sent/delivered accounting that
	// quiesce polls; nil on the simulator.
	counters *metrics.Counters
	// cfg is the leg's process template: the simulator's timers and the
	// fault leg's callbacks. spawn fills in the rest.
	cfg core.Config

	gate  atomic.Bool
	mu    sync.Mutex
	procs []*core.Process
	alive []bool
}

// newDriver checks the spec and returns its driver. With a scheduler
// the processes arm their timers on it and a phase ends when its event
// queue drains; without one, when the Hosts and transports the leg
// watches are idle.
func newDriver(spec Spec, sched *sim.Scheduler) (*driver, error) {
	if spec.N < 2 || spec.MaxBatch < 1 {
		return nil, fmt.Errorf("spec needs N >= 2 and MaxBatch >= 1, got N=%d MaxBatch=%d", spec.N, spec.MaxBatch)
	}
	d := &driver{
		spec:   spec,
		oracle: wfg.NewGraphObserver(nil),
		procs:  make([]*core.Process, spec.N),
		alive:  make([]bool, spec.N),
	}
	if sched != nil {
		d.cfg.Timers = workload.SimTimers{Sched: sched}
		d.quiesce = func() error {
			const maxEvents = 10_000_000
			for n := 0; sched.Step(); n++ {
				if n >= maxEvents {
					return fmt.Errorf("sim: event queue not quiescing after %d events", maxEvents)
				}
			}
			return nil
		}
	} else {
		d.counters = metrics.NewCounters()
		d.quiesce = pollQuiesce(d.counters)
	}
	return d, nil
}

// watch attaches the driver's observers — the quiescence counters of a
// concurrent leg, then the oracle — to one runtime.
func (d *driver) watch(net interface{ Observe(transport.Observer) }) {
	if d.counters != nil {
		net.Observe(d.counters)
	}
	net.Observe(d.oracle)
}

// spawn builds process i on tr and makes it the current, alive instance
// of i. It is the one place a process is built, at start and on every
// rebuild.
func (d *driver) spawn(i int, tr transport.Transport) error {
	pid := id.Proc(i)
	cfg := d.cfg
	cfg.ID, cfg.Transport, cfg.Policy = pid, tr, core.InitiateManually
	cfg.OnRequest = func(id.Proc) { d.service(pid) }
	cfg.OnActive = func() { d.service(pid) }
	p, err := core.NewProcess(cfg)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.procs[i], d.alive[i] = p, true
	d.mu.Unlock()
	return nil
}

// proc returns the current instance of process i, or nil while it is
// down.
func (d *driver) proc(i int) *core.Process {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.alive[i] {
		return nil
	}
	return d.procs[i]
}

// service answers every pending request of pid once the gate is open
// and pid is alive and active; a blocked process answers on OnActive.
func (d *driver) service(pid id.Proc) {
	if !d.gate.Load() {
		return
	}
	p := d.proc(int(pid))
	if p == nil || p.Blocked() {
		return
	}
	if _, err := p.GrantAll(); err != nil {
		panic(fmt.Sprintf("conformance: grant-all %v: %v", pid, err))
	}
}

// probe makes every alive, blocked process in [from, to) initiate a
// probe computation.
func (d *driver) probe(from, to int) {
	for i := from; i < to; i++ {
		if p := d.proc(i); p != nil && p.Blocked() {
			p.StartProbe()
		}
	}
}

// hooks are a leg's own steps between the driver's phases; a nil hook
// is skipped.
type hooks struct {
	// storming runs once the storm is sent, before it quiesces.
	storming func() error
	// swept runs at the sweep's fixed point, before the probes.
	swept func() error
	// probed runs once the probes quiesce, before the verdict.
	probed func() error
}

// run executes storm → sweep → probe with the leg's hooks and returns
// the verdict, cross-checked against the oracle.
func (d *driver) run(h hooks) (string, error) {
	for i, batch := range d.spec.Batches() {
		if len(batch) == 0 {
			continue
		}
		if err := d.proc(i).Request(batch...); err != nil {
			return "", fmt.Errorf("storm: %w", err)
		}
	}
	if h.storming != nil {
		if err := h.storming(); err != nil {
			return "", err
		}
	}
	if err := d.settle("storm"); err != nil {
		return "", err
	}
	d.gate.Store(true)
	for i := 0; i < d.spec.N; i++ {
		if p := d.proc(i); p != nil && !p.Blocked() {
			if _, err := p.GrantAll(); err != nil {
				return "", fmt.Errorf("sweep: %w", err)
			}
		}
	}
	if err := d.settle("sweep"); err != nil {
		return "", err
	}
	if h.swept != nil {
		if err := h.swept(); err != nil {
			return "", err
		}
	}
	d.probe(0, d.spec.N)
	if err := d.settle("probes"); err != nil {
		return "", err
	}
	if h.probed != nil {
		if err := h.probed(); err != nil {
			return "", err
		}
	}
	return d.verdict()
}

// settle waits for the phase to quiesce.
func (d *driver) settle(phase string) error {
	if err := d.quiesce(); err != nil {
		return fmt.Errorf("after %s: %w", phase, err)
	}
	return nil
}

// dark returns the oracle's dark-cycle vertices, sorted and as a set.
func (d *driver) dark() (sorted []id.Proc, on map[id.Proc]bool) {
	d.oracle.With(func(g *wfg.Graph) { sorted = g.DarkCycleVertices() })
	on = make(map[id.Proc]bool, len(sorted))
	for _, v := range sorted {
		on[v] = true
	}
	return sorted, on
}

// verdict renders the schedule-independent outcome canonically — one
// line per process (blocked, declared, sorted black-path edges; "down"
// for a crashed one) plus the oracle's dark-cycle vertex set; message
// counts, probe tags and anything else timing-dependent are left out —
// and cross-checks it against the oracle over the alive processes: the
// declared set must be exactly the dark-cycle vertices (every process
// on a permanent cycle declares — QRP1 — and nobody else does — QRP2),
// and every blocked process must be informed (declared, or a non-empty
// §5 black-path set). The verdict is returned even when the check
// fails.
func (d *driver) verdict() (string, error) {
	dark, onDark := d.dark()
	var b strings.Builder
	var err error
	for i := 0; i < d.spec.N; i++ {
		p := d.proc(i)
		if p == nil {
			fmt.Fprintf(&b, "p%d down\n", i)
			continue
		}
		_, declared := p.Deadlocked()
		black := p.BlackPaths() // sorted
		fmt.Fprintf(&b, "p%d blocked=%t declared=%t black=%v\n",
			p.ID(), p.Blocked(), declared, black)
		switch {
		case err != nil:
		case declared && !onDark[p.ID()]:
			err = fmt.Errorf("false positive: %v declared but is on no dark cycle", p.ID())
		case !declared && onDark[p.ID()]:
			err = fmt.Errorf("false negative: %v is on a dark cycle but never declared", p.ID())
		case p.Blocked() && !declared && len(black) == 0:
			err = fmt.Errorf("process %v permanently blocked but neither declared nor informed", p.ID())
		}
	}
	fmt.Fprintf(&b, "oracle dark=%v\n", dark)
	if err != nil {
		return b.String(), fmt.Errorf("oracle cross-check: %w", err)
	}
	return b.String(), nil
}

// RunSim replays the spec on the deterministic simulated network.
func RunSim(spec Spec) (string, error) { return runSim(spec, nil) }

// runSim is RunSim with o, when non-nil, observing every message.
func runSim(spec Spec, o transport.Observer) (string, error) {
	sched := sim.New(spec.Seed)
	d, err := newDriver(spec, sched)
	if err != nil {
		return "", err
	}
	net := transport.NewSimNet(sched, nil)
	if o != nil {
		net.Observe(o)
	}
	d.watch(net)
	for i := 0; i < spec.N; i++ {
		if err := d.spawn(i, net); err != nil {
			return "", err
		}
	}
	return d.run(hooks{})
}

// RunHosted replays the spec on a single sharded engine.Host with no
// wire underneath: every message takes the intra-host fast path (a
// direct shard-queue append). shards <= 0 defaults to one shard.
func RunHosted(spec Spec, shards int) (string, error) {
	d, err := newDriver(spec, nil)
	if err != nil {
		return "", err
	}
	host := engine.NewHost(engine.Options{Shards: shards})
	defer host.Close()
	d.watch(host)
	for i := 0; i < spec.N; i++ {
		if err := d.spawn(i, host); err != nil {
			return "", err
		}
	}
	return d.run(hooks{})
}

// RunTCP replays the spec over real loopback TCP sockets: each process
// steps on its own one-shard engine.Host, and the Hosts share one TCP
// transport under identity placement (one listener per process on
// 127.0.0.1, binary-framed connections between them — the DESIGN.md §9
// wire format).
func RunTCP(spec Spec) (string, error) { return RunTCPChaos(spec, "") }

// RunTCPChaos is RunTCP while a wall-clock drop storm (the only
// TCP-expressible fault) repeatedly force-closes every established
// connection. Links re-dial and replay, receivers dedup and resequence,
// so the verdict must be byte-identical to the fault-free simulator's —
// connections die, messages do not.
func RunTCPChaos(spec Spec, plan string) (string, error) {
	p, err := faultinject.Parse(plan)
	if err != nil {
		return "", fmt.Errorf("plan: %w", err)
	}
	d, err := newDriver(spec, nil)
	if err != nil {
		return "", err
	}
	net := transport.NewTCP()
	defer net.Close()
	stop, err := faultinject.DriveTCP(net, p)
	if err != nil {
		return "", err
	}
	defer stop()
	for i := 0; i < spec.N; i++ {
		host := engine.NewHost(engine.Options{Transport: net})
		defer host.Close()
		d.watch(host)
		if err := d.spawn(i, host); err != nil {
			return "", err
		}
	}
	return d.run(hooks{})
}

// muxHosts is the two-host topology RunTCPMux, RunTCPMuxChaos and
// RunTCPCrashRestore share: hosts A and B, each a sharded engine.Host
// over its own TCP transport with ONE host listener, the spec's
// processes split half and half by a StaticPlacement, and one
// multiplexed link per direction between them. Side 0 is A, side 1 is
// B; a side's log is its write-ahead log, if it journals.
type muxHosts struct {
	d      *driver
	shards int
	tcp    [2]*transport.TCP
	host   [2]*engine.Host
	log    [2]*wal.Log
}

// muxIDs are the host ids of A and B: arbitrary positive values well
// clear of the process-id space.
var muxIDs = [2]transport.NodeID{100_001, 100_002}

// side returns the side process i is placed on.
func (m *muxHosts) side(i int) int {
	if i < m.d.spec.N/2 {
		return 0
	}
	return 1
}

// listen opens side s's transport and its host listener.
func (m *muxHosts) listen(s int) error {
	t := transport.NewTCP()
	if err := t.ListenHost(muxIDs[s], "127.0.0.1:0"); err != nil {
		t.Close()
		return err
	}
	m.tcp[s] = t
	return nil
}

// place installs, on the given transports, a fresh placement carrying
// every open listener's current address: a listener reborn on a new
// port after a crash reaches a side only when it is placed there.
func (m *muxHosts) place(on ...*transport.TCP) {
	sp := transport.StaticPlacement{
		Hosts: map[transport.NodeID]transport.NodeID{},
		Addrs: map[transport.NodeID]string{},
	}
	for s, t := range m.tcp {
		if t != nil {
			sp.Addrs[muxIDs[s]] = t.HostAddr(muxIDs[s])
		}
	}
	for i := 0; i < m.d.spec.N; i++ {
		sp.Hosts[transport.NodeID(i)] = muxIDs[m.side(i)]
	}
	for _, t := range on {
		t.SetResolver(sp)
	}
}

// start builds side s's Host, watched by the driver, and spawns the
// side's processes on it. attach, when non-nil, runs between the
// Host's construction and the first registration.
func (m *muxHosts) start(s int, attach func(*engine.Host)) error {
	h := engine.NewHost(engine.Options{Shards: m.shards, Transport: m.tcp[s]})
	m.host[s] = h
	m.d.watch(h)
	if attach != nil {
		attach(h)
	}
	for i := 0; i < m.d.spec.N; i++ {
		if m.side(i) == s {
			if err := m.d.spawn(i, h); err != nil {
				return err
			}
		}
	}
	return nil
}

// stop closes side s: its Host, its transport, then its log.
func (m *muxHosts) stop(s int) {
	if m.host[s] != nil {
		m.host[s].Close()
	}
	if m.tcp[s] != nil {
		m.tcp[s].Close()
	}
	if m.log[s] != nil {
		m.log[s].Close()
	}
	m.host[s], m.tcp[s], m.log[s] = nil, nil, nil
}

// RunTCPMux replays the spec on the host-multiplexed topology: the
// processes are split across two sharded engine Hosts, and ALL
// cross-host traffic — every (from,to) pair — shares one TCP link per
// direction and one listener per host. Intra-host traffic never
// touches the wire. The verdict must be byte-identical to every other
// runner's.
func RunTCPMux(spec Spec, shards int) (string, error) { return RunTCPMuxChaos(spec, shards, "") }

// RunTCPMuxChaos replays the spec on the host-multiplexed two-host
// topology while the drop storm force-closes established connections on
// BOTH transports — so the single shared host link, carrying every
// cross-host pair's traffic at once, is the thing being killed and
// replayed. The verdict must still be byte-identical to the fault-free
// simulator's.
func RunTCPMuxChaos(spec Spec, shards int, plan string) (string, error) {
	p, err := faultinject.Parse(plan)
	if err != nil {
		return "", fmt.Errorf("plan: %w", err)
	}
	d, err := newDriver(spec, nil)
	if err != nil {
		return "", err
	}
	m := &muxHosts{d: d, shards: shards}
	defer m.stop(1)
	defer m.stop(0)
	for s := range m.tcp {
		if err := m.listen(s); err != nil {
			return "", err
		}
	}
	m.place(m.tcp[:]...)
	for _, net := range m.tcp {
		stop, err := faultinject.DriveTCP(net, p)
		if err != nil {
			return "", err
		}
		defer stop()
	}
	for s := range m.host {
		if err := m.start(s, nil); err != nil {
			return "", err
		}
	}
	return d.run(hooks{})
}

// pollQuiesce waits until the sent and delivered totals are equal and
// stable. Handlers are the only message sources once the main goroutine
// goes passive, and a handler runs strictly after its message's
// delivery is counted, so "equal and unchanged across the stability
// window" implies no handler is running and none will.
func pollQuiesce(c *metrics.Counters) func() error {
	return func() error {
		const window = 20 // polls
		last, stable := int64(-1), 0
		err := pollUntil(30*time.Second, func() bool {
			sent := c.TotalSent()
			if sent == c.TotalDelivered() && sent == last {
				stable++
			} else {
				stable, last = 0, sent
			}
			return stable >= window
		})
		if err != nil {
			return fmt.Errorf("transport did not quiesce (sent=%d delivered=%d): %w", c.TotalSent(), c.TotalDelivered(), err)
		}
		return nil
	}
}

// pollUntil polls cond at 2ms until it holds or the deadline expires.
func pollUntil(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", d)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
