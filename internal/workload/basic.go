package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wfg"
)

// SimTimers adapts the discrete-event scheduler to engine.Timers.
type SimTimers struct {
	Sched *sim.Scheduler
}

// After implements engine.Timers.
func (t SimTimers) After(d int64, fn func()) { t.Sched.After(sim.Duration(d), fn) }

var _ engine.Timers = SimTimers{}

// Detection records one deadlock declaration observed during a run.
type Detection struct {
	Proc id.Proc
	Tag  id.Tag
	At   sim.Time
}

// BasicOptions configures a simulated basic-model system.
type BasicOptions struct {
	// Seed drives all randomness (latency draws, workload choices).
	Seed int64
	// Latency is the network delay model; nil means fixed 1ms.
	Latency transport.Latency
	// Policy and Delay select the probe initiation rule for every
	// process; Policy defaults to InitiateOnBlock.
	Policy core.InitiationPolicy
	// Delay is the §4.3 timer T in virtual nanoseconds.
	Delay sim.Duration
	// ServiceTime is how long an active process takes to answer a
	// pending request; defaults to 100µs.
	ServiceTime sim.Duration
	// AutoGrant, when true, makes every process answer all pending
	// requests ServiceTime after it becomes (or is found) active.
	AutoGrant bool
}

// BasicSystem is a simulated basic-model deployment: N processes on a
// deterministic network, plus the omniscient oracle and traffic
// instrumentation the experiments read.
type BasicSystem struct {
	Sched      *sim.Scheduler
	Net        *transport.SimNet
	Procs      []*core.Process
	Oracle     *wfg.GraphObserver
	Counters   *metrics.Counters
	FIFO       *trace.FIFOChecker
	Detections []Detection

	opts BasicOptions
}

// NewBasicSystem builds a system of n processes.
func NewBasicSystem(n int, opts BasicOptions) (*BasicSystem, error) {
	if n <= 0 {
		return nil, fmt.Errorf("basic system: n must be positive, got %d", n)
	}
	if opts.ServiceTime == 0 {
		opts.ServiceTime = 100 * sim.Microsecond
	}
	if opts.Policy == 0 {
		opts.Policy = core.InitiateOnBlock
	}
	sched := sim.New(opts.Seed)
	net := transport.NewSimNet(sched, opts.Latency)
	sys := &BasicSystem{
		Sched:    sched,
		Net:      net,
		Oracle:   wfg.NewGraphObserver(nil),
		Counters: metrics.NewCounters(),
		FIFO:     trace.NewFIFOChecker(nil),
		opts:     opts,
	}
	net.Observe(sys.Oracle)
	net.Observe(sys.Counters)
	net.Observe(sys.FIFO)

	sys.Procs = make([]*core.Process, n)
	for i := 0; i < n; i++ {
		pid := id.Proc(i)
		cfg := core.Config{
			ID:        pid,
			Transport: net,
			Policy:    opts.Policy,
			Delay:     int64(opts.Delay),
			Timers:    SimTimers{Sched: sched},
			OnDeadlock: func(tag id.Tag) {
				sys.Detections = append(sys.Detections, Detection{Proc: pid, Tag: tag, At: sched.Now()})
			},
		}
		if opts.AutoGrant {
			cfg.OnRequest = func(id.Proc) { sys.scheduleService(pid) }
			cfg.OnActive = func() { sys.scheduleService(pid) }
		}
		p, err := core.NewProcess(cfg)
		if err != nil {
			return nil, err
		}
		sys.Procs[i] = p
	}
	return sys, nil
}

// scheduleService arranges for process pid to answer all its pending
// requests after the service time, if it is active at that moment.
func (s *BasicSystem) scheduleService(pid id.Proc) {
	s.Sched.After(s.opts.ServiceTime, func() {
		p := s.Procs[pid]
		if p.Blocked() {
			return // will be rescheduled by OnActive
		}
		if _, err := p.GrantAll(); err != nil {
			panic(fmt.Sprintf("auto-grant %v: %v", pid, err))
		}
	})
}

// Apply issues the topology's requests simultaneously at the current
// virtual instant: every process sends its batch before any message is
// delivered, so a topology containing a cycle always yields a dark
// cycle.
func (s *BasicSystem) Apply(t Topology) error {
	if t.N > len(s.Procs) {
		return fmt.Errorf("topology wants %d processes, system has %d", t.N, len(s.Procs))
	}
	for i, targets := range t.Targets {
		if len(targets) == 0 {
			continue
		}
		if err := s.Procs[i].Request(targets...); err != nil {
			return fmt.Errorf("apply topology: %w", err)
		}
	}
	return nil
}

// Run drains the event queue (bounded by maxEvents as a runaway guard)
// and returns the number of events executed.
func (s *BasicSystem) Run(maxEvents int) int {
	n := 0
	for n < maxEvents && s.Sched.Step() {
		n++
	}
	return n
}

// DetectedProcs returns the set of processes that declared deadlock.
func (s *BasicSystem) DetectedProcs() map[id.Proc]bool {
	out := make(map[id.Proc]bool, len(s.Detections))
	for _, d := range s.Detections {
		out[d.Proc] = true
	}
	return out
}

// TruthCheck compares every declaration against the oracle and the
// oracle's deadlocks against the declarations, returning the confusion
// counts for this run. A process counts as "informed" if it either
// declared deadlock itself or learned a non-empty permanent-black-path
// set via the WFGD computation — the paper's §4.2 standard for
// completeness (one detector per cycle, the rest informed).
func (s *BasicSystem) TruthCheck() metrics.ConfusionCounts {
	var c metrics.Confusion
	declared := s.DetectedProcs()
	var truthDark []id.Proc
	s.Oracle.With(func(g *wfg.Graph) {
		truthDark = g.DarkCycleVertices()
	})
	dark := make(map[id.Proc]bool, len(truthDark))
	for _, v := range truthDark {
		dark[v] = true
	}
	for p := range declared {
		if dark[p] {
			c.AddTP()
		} else {
			c.AddFP()
		}
	}
	// Completeness per dark SCC: at least one member declared, and
	// every member informed (declared or non-empty WFGD set).
	for _, v := range truthDark {
		if declared[v] {
			continue
		}
		if len(s.Procs[v].BlackPaths()) > 0 {
			c.AddTN() // informed via WFGD: counts as covered
			continue
		}
		c.AddFN()
	}
	return c.Counts()
}
