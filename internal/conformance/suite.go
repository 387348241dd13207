// Package conformance is the differential transport-conformance suite:
// it replays the identical seeded workload over every transport the
// repository ships — the deterministic simulated network, the live
// goroutine network, and real loopback TCP sockets — and demands
// byte-identical verdicts from all of them, each verdict additionally
// cross-checked against the omniscient WFG oracle.
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
// Each phase runs to quiescence: the simulator drains its event queue;
// the concurrent transports are polled until sent == delivered holds
// stably (messages only beget messages from handlers, so a stable
// equality means the system is idle).
package conformance

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/transport"
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

// observableTransport is the slice of the transports the suite needs:
// routing plus observer attachment.
type observableTransport interface {
	transport.Transport
	Observe(transport.Observer)
}

// placement maps each process index to the transport endpoint it
// registers on and fans observers out across the whole topology. A
// single-transport run is the degenerate placement; the host-mux run
// splits the processes across two engine Hosts bridged by one
// multiplexed TCP link per direction.
type placement interface {
	transportFor(i int) transport.Transport
	observe(o transport.Observer)
}

// singlePlacement registers every process on one transport.
type singlePlacement struct{ net observableTransport }

func (s singlePlacement) transportFor(int) transport.Transport { return s.net }
func (s singlePlacement) observe(o transport.Observer)         { s.net.Observe(o) }

// splitPlacement registers processes below split on a and the rest on
// b. Observers attach to both sides; each message is observed exactly
// once globally (OnSend at its source host, OnDeliver at its
// destination host).
type splitPlacement struct {
	a, b  observableTransport
	split int
}

func (s splitPlacement) transportFor(i int) transport.Transport {
	if i < s.split {
		return s.a
	}
	return s.b
}

func (s splitPlacement) observe(o transport.Observer) {
	s.a.Observe(o)
	s.b.Observe(o)
}

// RunSim replays the spec on the deterministic simulated network.
func RunSim(spec Spec) (string, error) {
	sched := sim.New(spec.Seed)
	net := transport.NewSimNet(sched, nil)
	quiesce := func() error {
		const maxEvents = 10_000_000
		for n := 0; sched.Step(); n++ {
			if n >= maxEvents {
				return fmt.Errorf("sim: event queue not quiescing after %d events", maxEvents)
			}
		}
		return nil
	}
	return run(spec, net, workload.SimTimers{Sched: sched}, quiesce)
}

// RunLive replays the spec on the live goroutine network.
func RunLive(spec Spec) (string, error) {
	net := transport.NewLive()
	defer net.Close()
	counters := metrics.NewCounters()
	net.Observe(counters)
	return run(spec, net, nil, pollQuiesce(counters))
}

// RunTCP replays the spec over real loopback TCP sockets (one listener
// per process on 127.0.0.1, binary-framed connections between them —
// the DESIGN.md §9 wire format).
func RunTCP(spec Spec) (string, error) {
	net := transport.NewTCP()
	defer net.Close()
	counters := metrics.NewCounters()
	net.Observe(counters)
	return run(spec, net, nil, pollQuiesce(counters))
}

// RunHosted replays the spec on a single sharded engine.Host with no
// wire underneath: every message takes the intra-host fast path (a
// direct shard-queue append). shards <= 0 defaults to one shard.
func RunHosted(spec Spec, shards int) (string, error) {
	host := engine.NewHost(engine.Options{Shards: shards})
	defer host.Close()
	counters := metrics.NewCounters()
	host.Observe(counters)
	return runPlaced(spec, singlePlacement{net: host}, nil, pollQuiesce(counters))
}

// Host identifiers for the two-host mux topology. Arbitrary positive
// values well clear of the process-id space.
const (
	muxHostA = transport.NodeID(100_001)
	muxHostB = transport.NodeID(100_002)
)

// muxTopology builds the two-host topology RunTCPMux and the chaos
// variant share: two TCP transports, each with ONE host listener, one
// multiplexed link per direction between them, an engine.Host with the
// given shard count over each, and the spec's processes split half and
// half. The caller must invoke cleanup (hosts first, then transports).
func muxTopology(spec Spec, shards int) (place splitPlacement, counters *metrics.Counters, nets [2]*transport.TCP, cleanup func(), err error) {
	tcpA, tcpB := transport.NewTCP(), transport.NewTCP()
	if err = tcpA.ListenHost(muxHostA, "127.0.0.1:0"); err != nil {
		tcpA.Close()
		tcpB.Close()
		return
	}
	if err = tcpB.ListenHost(muxHostB, "127.0.0.1:0"); err != nil {
		tcpA.Close()
		tcpB.Close()
		return
	}
	split := spec.N / 2
	sp := transport.StaticPlacement{
		Hosts: map[transport.NodeID]transport.NodeID{},
		Addrs: map[transport.NodeID]string{
			muxHostA: tcpA.HostAddr(muxHostA),
			muxHostB: tcpB.HostAddr(muxHostB),
		},
	}
	for i := 0; i < spec.N; i++ {
		h := muxHostA
		if i >= split {
			h = muxHostB
		}
		sp.Hosts[transport.NodeID(i)] = h
	}
	tcpA.SetResolver(sp)
	tcpB.SetResolver(sp)

	hostA := engine.NewHost(engine.Options{Shards: shards, Transport: tcpA})
	hostB := engine.NewHost(engine.Options{Shards: shards, Transport: tcpB})
	counters = metrics.NewCounters()
	hostA.Observe(counters)
	hostB.Observe(counters)

	place = splitPlacement{a: hostA, b: hostB, split: split}
	nets = [2]*transport.TCP{tcpA, tcpB}
	cleanup = func() {
		hostA.Close()
		hostB.Close()
		tcpA.Close()
		tcpB.Close()
	}
	return
}

// RunTCPMux replays the spec on the host-multiplexed topology: the
// processes are split across two sharded engine Hosts, and ALL
// cross-host traffic — every (from,to) pair — shares one TCP link per
// direction and one listener per host. Intra-host traffic never
// touches the wire. The verdict must be byte-identical to every other
// runner's.
func RunTCPMux(spec Spec, shards int) (string, error) {
	place, counters, _, cleanup, err := muxTopology(spec, shards)
	if err != nil {
		return "", err
	}
	defer cleanup()
	return runPlaced(spec, place, nil, pollQuiesce(counters))
}

// pollQuiesce waits until the transport's sent and delivered totals are
// equal and stable. Handlers are the only message sources once the main
// goroutine goes passive, and a handler runs strictly after its
// message's delivery is counted, so "equal and unchanged across the
// stability window" implies no handler is running and none will.
func pollQuiesce(c *metrics.Counters) func() error {
	return func() error {
		const (
			window   = 20
			interval = 2 * time.Millisecond
			deadline = 30 * time.Second
		)
		var last int64 = -1
		stable := 0
		for start := time.Now(); time.Since(start) < deadline; {
			sent, delivered := c.TotalSent(), c.TotalDelivered()
			if sent == delivered && sent == last {
				stable++
				if stable >= window {
					return nil
				}
			} else {
				stable = 0
				last = sent
			}
			time.Sleep(interval)
		}
		return fmt.Errorf("transport did not quiesce within %v (sent=%d delivered=%d)",
			30*time.Second, c.TotalSent(), c.TotalDelivered())
	}
}

// run executes the three-phase workload on the given transport and
// returns the canonical verdict, after cross-checking it against the
// oracle.
func run(spec Spec, net observableTransport, timers engine.Timers, quiesce func() error) (string, error) {
	return runPlaced(spec, singlePlacement{net: net}, timers, quiesce)
}

// runPlaced is run generalized over a process placement, so the same
// three-phase workload drives both single-transport topologies and the
// sharded host topology (processes split across two engine Hosts
// bridged by a multiplexed TCP link).
func runPlaced(spec Spec, place placement, timers engine.Timers, quiesce func() error) (string, error) {
	if spec.N < 2 || spec.MaxBatch < 1 {
		return "", fmt.Errorf("spec needs N >= 2 and MaxBatch >= 1, got N=%d MaxBatch=%d", spec.N, spec.MaxBatch)
	}
	oracle := wfg.NewGraphObserver(nil)
	place.observe(oracle)

	var gate atomic.Bool
	procs := make([]*core.Process, spec.N)
	service := func(pid id.Proc) {
		if !gate.Load() {
			return
		}
		p := procs[pid]
		if p.Blocked() {
			return // answers on OnActive once unblocked
		}
		if _, err := p.GrantAll(); err != nil {
			panic(fmt.Sprintf("conformance: grant-all %v: %v", pid, err))
		}
	}
	for i := 0; i < spec.N; i++ {
		pid := id.Proc(i)
		p, err := core.NewProcess(core.Config{
			ID:        pid,
			Transport: place.transportFor(i),
			Timers:    timers,
			Policy:    core.InitiateManually,
			OnRequest: func(id.Proc) { service(pid) },
			OnActive:  func() { service(pid) },
		})
		if err != nil {
			return "", err
		}
		procs[i] = p
	}

	// Phase 1: the storm, grants gated off.
	for i, batch := range spec.Batches() {
		if len(batch) == 0 {
			continue
		}
		if err := procs[i].Request(batch...); err != nil {
			return "", fmt.Errorf("storm: %w", err)
		}
	}
	if err := quiesce(); err != nil {
		return "", fmt.Errorf("after storm: %w", err)
	}

	// Phase 2: open the gate and sweep; the cascade runs to its fixed
	// point.
	gate.Store(true)
	for _, p := range procs {
		if !p.Blocked() {
			if _, err := p.GrantAll(); err != nil {
				return "", fmt.Errorf("sweep: %w", err)
			}
		}
	}
	if err := quiesce(); err != nil {
		return "", fmt.Errorf("after sweep: %w", err)
	}

	// Phase 3: every permanently blocked process initiates detection.
	for _, p := range procs {
		if p.Blocked() {
			p.StartProbe()
		}
	}
	if err := quiesce(); err != nil {
		return "", fmt.Errorf("after probes: %w", err)
	}

	v := verdict(procs, oracle)
	if err := crossCheck(procs, oracle); err != nil {
		return v, fmt.Errorf("oracle cross-check: %w", err)
	}
	return v, nil
}

// verdict renders the schedule-independent outcome canonically: one
// line per process (blocked, declared, sorted black-path edges) plus
// the oracle's dark-cycle vertex set. Message counts, probe tags and
// anything else timing-dependent are deliberately excluded.
func verdict(procs []*core.Process, oracle *wfg.GraphObserver) string {
	var b strings.Builder
	for _, p := range procs {
		_, declared := p.Deadlocked()
		black := append([]id.Edge(nil), p.BlackPaths()...)
		sort.Slice(black, func(i, j int) bool {
			if black[i].From != black[j].From {
				return black[i].From < black[j].From
			}
			return black[i].To < black[j].To
		})
		fmt.Fprintf(&b, "p%d blocked=%t declared=%t black=%v\n",
			p.ID(), p.Blocked(), declared, black)
	}
	var dark []id.Proc
	oracle.With(func(g *wfg.Graph) { dark = g.DarkCycleVertices() })
	sort.Slice(dark, func(i, j int) bool { return dark[i] < dark[j] })
	fmt.Fprintf(&b, "oracle dark=%v\n", dark)
	return b.String()
}

// crossCheck holds the verdict against the omniscient oracle: the
// declared set must be exactly the dark-cycle vertices (every initiator
// on a permanent cycle declares — QRP1 — and nobody else does — QRP2),
// and every permanently blocked process must be informed (declared, or
// a non-empty §5 black-path set).
func crossCheck(procs []*core.Process, oracle *wfg.GraphObserver) error {
	dark := make(map[id.Proc]bool)
	oracle.With(func(g *wfg.Graph) {
		for _, v := range g.DarkCycleVertices() {
			dark[v] = true
		}
	})
	for _, p := range procs {
		_, declared := p.Deadlocked()
		switch {
		case declared && !dark[p.ID()]:
			return fmt.Errorf("false positive: %v declared but is on no dark cycle", p.ID())
		case !declared && dark[p.ID()]:
			return fmt.Errorf("false negative: %v is on a dark cycle but never declared", p.ID())
		}
		if p.Blocked() && !declared && len(p.BlackPaths()) == 0 {
			return fmt.Errorf("process %v permanently blocked but neither declared nor informed", p.ID())
		}
	}
	return nil
}
