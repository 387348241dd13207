package explore

import (
	"fmt"

	"repro/internal/commdl"
	"repro/internal/core"
	"repro/internal/ddb"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/wfg"
)

// This file is the exploration corpus: the scenarios the repository's
// correctness claims are exhaustively checked against, shared by the
// explore tests and the cmhcheck CLI. Every scenario follows the
// discipline Instance documents — in-run properties latch through
// Audit, quiescence properties read final engine state only — so the
// reductions are sound for all of them.

// CorpusEntry is one named scenario plus the budget that exhausts it.
type CorpusEntry struct {
	Name  string
	About string
	Build Scenario
	// Opts are the per-scenario exploration bounds (reduction on).
	Opts Options
	// Brute marks scenarios small enough to also enumerate without
	// reduction, for verdict cross-checks and reduction measurement.
	Brute bool
}

// Corpus returns the standard exploration corpus.
func Corpus() []CorpusEntry {
	return []CorpusEntry{
		{Name: "ring2", About: "2-ring, one initiator: QRP1+QRP2 on every schedule",
			Build: RingScenario(2, false), Brute: true},
		{Name: "ring3", About: "3-ring, one initiator: QRP1+QRP2 on every schedule",
			Build: RingScenario(3, false), Brute: true},
		{Name: "ring3-multi", About: "3-ring, all members initiate concurrently (too large to brute-force: >1M raw schedules)",
			Build: RingScenario(3, true)},
		{Name: "ring4", About: "4-ring, one initiator: one process beyond the old brute-force limit",
			Build: RingScenario(4, false)},
		{Name: "grant-chain", About: "deadlock-free chain: no schedule may declare, all must unwind",
			Build: GrantChainScenario, Brute: true},
		{Name: "wfgd-ring-tail", About: "§5 WFGD sets exactly match the oracle on every schedule",
			Build: WFGDScenario, Brute: true},
		{Name: "or-ring3", About: "OR-model 3-ring: the diffusing computation detects on every schedule",
			Build: ORScenario(false), Brute: true},
		{Name: "or-escape", About: "OR-model ring with an active escape: no schedule may declare",
			Build: ORScenario(true), Brute: true},
		{Name: "ddb-acq-cycle", About: "§6 acquisition-edge cycle, holder-home edges on: detected whenever wedged",
			Build: DDBScenario(DDBAcqCycle, false), Brute: true},
		{Name: "ddb-acq-cycle-paper", About: "§6 acquisition-edge cycle under §6.4 edges alone: still detected (E11)",
			Build: DDBScenario(DDBAcqCycle, true), Brute: true},
		{Name: "ddb-hold-cycle", About: "remote-hold cycle, holder-home edges on: detected whenever wedged (E11)",
			Build: DDBScenario(DDBHoldCycle, false), Brute: true},
		{Name: "ddb-hold-cycle-paper", About: "remote-hold cycle under §6.4 edges alone: never detected (E11)",
			Build: DDBScenario(DDBHoldCycle, true), Brute: true},
		{Name: "ddb-no-deadlock", About: "contended but acyclic: all commit, stale probes never declare",
			Build: DDBScenario(DDBNoDeadlock, false), Brute: true},
		{Name: "ddb-hold-3site", About: "3-site remote-hold cycle: one site beyond the E11 minimal scenario",
			Build: DDBScenario(DDBHold3Site, false)},
	}
}

// CorpusEntryByName finds a corpus entry.
func CorpusEntryByName(name string) (CorpusEntry, bool) {
	for _, e := range Corpus() {
		if e.Name == name {
			return e, true
		}
	}
	return CorpusEntry{}, false
}

// RingScenario builds an n-ring with every process requesting its
// successor at setup and p0 (or, with everyoneInitiates, all members)
// initiating a probe computation. The in-run audit checks QRP2 at each
// declaration instant; the quiescence check asserts QRP1 (somebody on
// the permanent cycle must have declared — with a single initiator, p0
// itself).
func RingScenario(n int, everyoneInitiates bool) Scenario {
	return func(net *ChoiceNet) (Instance, error) {
		oracle := wfg.NewGraphObserver(nil)
		net.Observe(oracle)
		var auditErr error
		procs := make([]*core.Process, n)
		for i := 0; i < n; i++ {
			pid := id.Proc(i)
			p, err := core.NewProcess(core.Config{
				ID:        pid,
				Transport: net,
				Policy:    core.InitiateManually,
				OnDeadlock: func(id.Tag) {
					onBlack := false
					oracle.With(func(g *wfg.Graph) { onBlack = g.OnBlackCycle(pid) })
					if !onBlack && auditErr == nil {
						auditErr = fmt.Errorf("QRP2 violated: %v declared off black cycle", pid)
					}
				},
			})
			if err != nil {
				return Instance{}, err
			}
			procs[i] = p
		}
		for i := 0; i < n; i++ {
			if err := procs[i].Request(id.Proc((i + 1) % n)); err != nil {
				return Instance{}, err
			}
		}
		if _, ok := procs[0].StartProbe(); !ok {
			return Instance{}, fmt.Errorf("p0 not blocked")
		}
		if everyoneInitiates {
			for i := 1; i < n; i++ {
				procs[i].StartProbe()
			}
		}
		return Instance{
			Check: func() error {
				if _, dead := procs[0].Deadlocked(); !dead {
					return fmt.Errorf("QRP1 violated: initiator on permanent cycle did not declare")
				}
				return nil
			},
			Audit:       func() error { return auditErr },
			Fingerprint: fingerprintAll(net, coreParts(procs)...),
		}, nil
	}
}

// GrantChainScenario: 0 -> 1 -> 2 requests where p2 answers immediately
// and p1 answers when it unblocks. No schedule may declare, and every
// schedule must fully unwind.
func GrantChainScenario(net *ChoiceNet) (Instance, error) {
	procs := make([]*core.Process, 3)
	var auditErr error
	// Service discipline: grant whatever is pending whenever active —
	// wired through the delivery callbacks, so it is driven purely by
	// the explored schedule. The closures read procs, which is fully
	// populated before any delivery happens.
	service := func(pid id.Proc) func() {
		return func() {
			p := procs[pid]
			if !p.Blocked() {
				if _, err := p.GrantAll(); err != nil {
					panic(err)
				}
			}
		}
	}
	for i := 0; i < 3; i++ {
		pid := id.Proc(i)
		svc := service(pid)
		p, err := core.NewProcess(core.Config{
			ID:        pid,
			Transport: net,
			Policy:    core.InitiateOnBlock,
			OnRequest: func(id.Proc) { svc() },
			OnActive:  func() { svc() },
			OnDeadlock: func(id.Tag) {
				if auditErr == nil {
					auditErr = fmt.Errorf("false declaration by %v in a deadlock-free scenario", pid)
				}
			},
		})
		if err != nil {
			return Instance{}, err
		}
		procs[i] = p
	}
	if err := procs[0].Request(1); err != nil {
		return Instance{}, err
	}
	if err := procs[1].Request(2); err != nil {
		return Instance{}, err
	}
	return Instance{
		Check: func() error {
			for i, p := range procs {
				if p.Blocked() {
					return fmt.Errorf("process %d still blocked at quiescence", i)
				}
			}
			return nil
		},
		Audit:       func() error { return auditErr },
		Fingerprint: fingerprintAll(net, coreParts(procs)...),
	}, nil
}

// WFGDScenario: a 2-ring plus one tail process blocked behind it. Under
// EVERY delivery schedule, after quiescence each of the three processes
// must know exactly the oracle's permanent-black-path set (§5 holds
// schedule-independently, not just on the sampled runs).
func WFGDScenario(net *ChoiceNet) (Instance, error) {
	oracle := wfg.NewGraphObserver(nil)
	net.Observe(oracle)
	procs := make([]*core.Process, 3)
	for i := 0; i < 3; i++ {
		p, err := core.NewProcess(core.Config{
			ID:        id.Proc(i),
			Transport: net,
			Policy:    core.InitiateManually,
		})
		if err != nil {
			return Instance{}, err
		}
		procs[i] = p
	}
	// 0 <-> 1 cycle; 2 -> 0 tail. A single initiator keeps the
	// schedule space exhaustable; concurrent-initiator interleavings
	// are covered by the multi-initiator ring entries.
	if err := procs[0].Request(1); err != nil {
		return Instance{}, err
	}
	if err := procs[1].Request(0); err != nil {
		return Instance{}, err
	}
	if err := procs[2].Request(0); err != nil {
		return Instance{}, err
	}
	if _, ok := procs[0].StartProbe(); !ok {
		return Instance{}, fmt.Errorf("initiator not blocked")
	}
	return Instance{
		Check: func() error {
			for _, p := range procs {
				var want []id.Edge
				oracle.With(func(g *wfg.Graph) { want = g.PermanentBlackEdgesFrom(p.ID()) })
				got := p.BlackPaths()
				_, declared := p.Deadlocked()
				if len(got) == 0 && !declared {
					return fmt.Errorf("%v neither declared nor informed", p.ID())
				}
				if len(got) != len(want) {
					return fmt.Errorf("%v: S=%v, oracle=%v", p.ID(), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						return fmt.Errorf("%v: S=%v, oracle=%v", p.ID(), got, want)
					}
				}
			}
			return nil
		},
		Fingerprint: fingerprintAll(net, coreParts(procs)...),
	}, nil
}

// ORScenario: the OR-model 3-ring with one initiator. Every schedule
// must detect; the escape variant (one member also depends on an active
// outsider) must never declare under any schedule.
func ORScenario(escape bool) Scenario {
	return func(net *ChoiceNet) (Instance, error) {
		n := 3
		total := n
		if escape {
			total = n + 1 // process 3 stays active
		}
		procs := make([]*commdl.Process, total)
		for i := 0; i < total; i++ {
			p, err := commdl.New(commdl.Config{
				ID:        id.Proc(i),
				Transport: net,
			})
			if err != nil {
				return Instance{}, err
			}
			procs[i] = p
		}
		for i := 0; i < n; i++ {
			deps := []id.Proc{id.Proc((i + 1) % n)}
			if escape && i == 1 {
				deps = append(deps, id.Proc(n))
			}
			if err := procs[i].Block(deps...); err != nil {
				return Instance{}, err
			}
		}
		if _, ok := procs[0].StartDetection(); !ok {
			return Instance{}, fmt.Errorf("initiator active")
		}
		parts := make([]Snapshotter, len(procs))
		for i, p := range procs {
			parts[i] = p
		}
		return Instance{
			Check: func() error {
				if escape {
					for i, p := range procs {
						if p.Deadlocked() {
							return fmt.Errorf("process %d declared despite escape hatch", i)
						}
					}
					return nil
				}
				if !procs[0].Deadlocked() {
					return fmt.Errorf("initiator failed to detect the OR-ring")
				}
				return nil
			},
			Fingerprint: fingerprintAll(net, parts...),
		}, nil
	}
}

// DDBKind selects one of the §6 distributed-database scenarios.
type DDBKind int

// The DDB corpus scenarios. Resource r is homed at site r mod sites;
// transaction Ti is homed at site i.
const (
	// DDBAcqCycle wedges a cycle through acquisition edges: each
	// transaction locks its local resource, then the other site's.
	// §6.4's edge set sees this cycle, so it must be detected under
	// both edge models whenever it forms.
	DDBAcqCycle DDBKind = iota + 1
	// DDBHoldCycle wedges a cycle through remotely HELD resources:
	// each transaction locks the remote resource first, then its local
	// one — so each local wait chains through a passive remote agent.
	// This is E11's minimal scenario: invisible to §6.4 edges alone,
	// detected with holder-home edges.
	DDBHoldCycle
	// DDBNoDeadlock is the negative control: both transactions lock
	// the shared resources in the same order (no cycle possible), hold
	// times are zero, so every schedule must end with both committed
	// and no declaration — stale probes from transient waits must die
	// meaningless.
	DDBNoDeadlock
	// DDBHold3Site extends DDBHoldCycle to three sites/transactions,
	// one site beyond the minimal E11 scenario.
	DDBHold3Site
)

// ddbSpec is one transaction of a DDB scenario.
type ddbSpec struct {
	txn   id.Txn
	home  id.Site
	steps []ddb.LockStep
}

// ddbShape returns the sites, scripts, hold time and expectation of a
// DDB corpus scenario. wedgeHold is far beyond any timer horizon: a
// wedged transaction never commits, so deadlocks are permanent.
func ddbShape(kind DDBKind) (sites int, hold int64, mustDetect, mustCommit bool, specs []ddbSpec) {
	const wedgeHold = int64(1) << 40
	w := func(r id.Resource) ddb.LockStep { return ddb.LockStep{Resource: r, Mode: msg.LockWrite} }
	switch kind {
	case DDBAcqCycle:
		return 2, wedgeHold, true, false, []ddbSpec{
			{txn: 0, home: 0, steps: []ddb.LockStep{w(0), w(1)}},
			{txn: 1, home: 1, steps: []ddb.LockStep{w(1), w(0)}},
		}
	case DDBHoldCycle:
		return 2, wedgeHold, true, false, []ddbSpec{
			{txn: 0, home: 0, steps: []ddb.LockStep{w(1), w(0)}},
			{txn: 1, home: 1, steps: []ddb.LockStep{w(0), w(1)}},
		}
	case DDBNoDeadlock:
		return 2, 0, false, true, []ddbSpec{
			{txn: 0, home: 0, steps: []ddb.LockStep{w(0), w(1)}},
			{txn: 1, home: 1, steps: []ddb.LockStep{w(0), w(1)}},
		}
	case DDBHold3Site:
		return 3, wedgeHold, true, false, []ddbSpec{
			{txn: 0, home: 0, steps: []ddb.LockStep{w(1), w(0)}},
			{txn: 1, home: 1, steps: []ddb.LockStep{w(2), w(1)}},
			{txn: 2, home: 2, steps: []ddb.LockStep{w(0), w(2)}},
		}
	default:
		panic(fmt.Sprintf("unknown DDB scenario kind %d", kind))
	}
}

// DDBScenario builds a §6 scenario on explorable controllers. The
// in-run audit holds every declaration against the omniscient oracle at
// its instant (no false deadlocks under ANY schedule); the quiescence
// check asserts the per-kind expectation: a wedged dark cycle must have
// been declared (unless paperOnly, under which E11's remote-hold cycle
// must be invisible), and commit expectations must hold.
func DDBScenario(kind DDBKind, paperOnly bool) Scenario {
	return DDBScenarioWithReport(kind, paperOnly, nil)
}

// DDBScenarioWithReport is DDBScenario plus a per-executed-run report of
// how many agents the oracle saw wedged and how many declarations were
// made — the hook cross-run assertions ("some schedules DO wedge the
// cycle") hang off, since per-run checks can only say "whenever".
func DDBScenarioWithReport(kind DDBKind, paperOnly bool, report func(wedged, declared int)) Scenario {
	sites, hold, mustDetect, mustCommit, specs := ddbShape(kind)
	// E11's ablation: §6.4 edges alone still see acquisition-edge
	// cycles, but a cycle through a remotely HELD resource becomes
	// invisible — only the holder-home extension restores completeness.
	if paperOnly && kind != DDBAcqCycle {
		mustDetect = false
	}
	return func(net *ChoiceNet) (Instance, error) {
		ctrls := make([]*ddb.Controller, sites)
		var oracle *ddb.Oracle
		var auditErr error
		declared := make(map[id.Agent]bool)
		// A controller forgets a transaction the moment it finishes, so
		// the commit expectation is checked against what OnCommit reported.
		committed := make(map[id.Txn]bool)
		for s := 0; s < sites; s++ {
			c, err := ddb.NewController(ddb.Config{
				Site:      id.Site(s),
				Transport: net,
				Timers:    net,
				ResourceHome: func(r id.Resource) id.Site {
					return id.Site(int(r) % sites)
				},
				Mode:           ddb.InitiateOnWaitDelay,
				Delay:          1, // prompt: check fires within the wait-creating step
				StepDelay:      0,
				HoldTime:       hold,
				PaperEdgesOnly: paperOnly,
				OnDeadlock: func(target id.Agent, _ id.CtrlTag) {
					if !oracle.OnCycle(target) && auditErr == nil {
						auditErr = fmt.Errorf("false declaration: %v is on no dark cycle", target)
					}
					declared[target] = true
				},
				OnCommit: func(txn id.Txn) { committed[txn] = true },
			})
			if err != nil {
				return Instance{}, err
			}
			ctrls[s] = c
		}
		oracle = ddb.NewOracle(ctrls)
		for _, sp := range specs {
			if err := ctrls[sp.home].Submit(sp.txn, 1, sp.steps); err != nil {
				return Instance{}, err
			}
		}
		parts := make([]Snapshotter, len(ctrls))
		for i, c := range ctrls {
			parts[i] = c
		}
		return Instance{
			Check: func() error {
				wedged := oracle.DeadlockedAgents()
				if report != nil {
					report(len(wedged), len(declared))
				}
				if mustDetect && len(wedged) > 0 && len(declared) == 0 {
					return fmt.Errorf("dark cycle %v wedged but never declared", wedged)
				}
				if !mustDetect && len(declared) > 0 {
					return fmt.Errorf("unexpected declaration(s) %v", agentSet(declared))
				}
				if mustCommit {
					for _, sp := range specs {
						if !committed[sp.txn] {
							return fmt.Errorf("txn %v did not commit", sp.txn)
						}
					}
					if len(wedged) > 0 {
						return fmt.Errorf("oracle reports %v wedged in the no-deadlock control", wedged)
					}
				}
				return nil
			},
			Audit:       func() error { return auditErr },
			Fingerprint: fingerprintAll(net, parts...),
		}, nil
	}
}

// agentSet renders the keys of a declaration set.
func agentSet(m map[id.Agent]bool) []id.Agent {
	out := make([]id.Agent, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	return out
}

// coreParts adapts a process slice for FingerprintOf.
func coreParts(procs []*core.Process) []Snapshotter {
	out := make([]Snapshotter, len(procs))
	for i, p := range procs {
		out[i] = p
	}
	return out
}

// fingerprintAll fingerprints the network plus every engine.
func fingerprintAll(net *ChoiceNet, parts ...Snapshotter) func() uint64 {
	all := make([]Snapshotter, 0, len(parts)+1)
	all = append(all, net)
	all = append(all, parts...)
	return FingerprintOf(all...)
}
