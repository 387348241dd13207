package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/ddb"
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Runtime selectors for the open-loop generator.
const (
	// RuntimeSim runs on the deterministic discrete-event scheduler:
	// virtual time, seeded reproducibility, instantaneous oracle audits.
	RuntimeSim = "sim"
	// RuntimeHost runs on the sharded engine Host in real time:
	// thousands of controllers on a handful of event-loop goroutines.
	RuntimeHost = "host"
)

// Victim policy names accepted by OpenLoopConfig.Victim.
const (
	VictimNone     = "none"
	VictimDetected = "detected"
	VictimYoungest = "youngest"
	VictimRandom   = "random"
)

// Open-loop safety rails: the generator refuses configurations whose
// arrival schedule or event volume could not finish in bounded time.
const (
	maxOpenLoopSites    = 1 << 16
	maxOpenLoopKeys     = 1 << 30
	maxOpenLoopArrivals = 20_000_000
	maxOpenLoopDuration = int64(time.Hour)
	maxOpenLoopRate     = 10_000_000
)

// OpenLoopConfig shapes one open-loop run: a YCSB-style generator over
// the §6 DDB lock manager. Arrivals fire on a Poisson schedule at
// RatePerSec regardless of completion — the open-loop discipline — so
// contention compounds under overload instead of self-throttling.
type OpenLoopConfig struct {
	// Runtime is RuntimeSim or RuntimeHost.
	Runtime string `json:"runtime"`
	// Sites is the number of controllers (hosted processes under
	// RuntimeHost).
	Sites int `json:"sites"`
	// Shards is the Host shard count (RuntimeHost only; default 8).
	Shards int `json:"shards,omitempty"`
	// Keys is the lockable key space; key k is managed by site k%Sites.
	Keys int64 `json:"keys"`
	// Dist names the key distribution (see KeyDistNames); Theta,
	// HotFrac and HotOpFrac parameterize zipfian and hotspot.
	Dist      string  `json:"dist"`
	Theta     float64 `json:"theta,omitempty"`
	HotFrac   float64 `json:"hot_frac,omitempty"`
	HotOpFrac float64 `json:"hot_op_frac,omitempty"`
	// RatePerSec is the mean arrival rate; DurationNs the admission
	// window (virtual under sim, wall-clock under host); MaxTxns an
	// optional cap on admitted transactions (0 = unlimited).
	RatePerSec float64 `json:"rate_per_sec"`
	DurationNs int64   `json:"duration_ns"`
	MaxTxns    int64   `json:"max_txns,omitempty"`
	// Mix shapes the transaction scripts.
	Mix TxnMix `json:"mix"`
	// ThinkNs is the pause between a grant and the next lock request
	// (the controller's StepDelay); HoldNs how long a transaction keeps
	// its locks before committing; DelayNs the §4.3 continuous-wait
	// threshold T before a probe computation starts.
	ThinkNs int64 `json:"think_ns"`
	HoldNs  int64 `json:"hold_ns"`
	DelayNs int64 `json:"delay_ns"`
	// Victim selects what a declaration aborts: "none" leaves deadlocks
	// standing (measurement / soundness runs), the rest map onto the
	// ddb victim policies.
	Victim string `json:"victim"`
	// Retry resubmits aborted transactions with linear backoff
	// (BackoffNs base, default 20ms) until they commit.
	Retry     bool  `json:"retry"`
	BackoffNs int64 `json:"backoff_ns,omitempty"`
	// Seed drives every random choice.
	Seed int64 `json:"seed"`
	// CheckOracle audits declarations against the omniscient oracle: at
	// declaration time under sim; at quiescence under host, which
	// requires Victim "none" (cycles must persist for the deferred
	// audit to be exact).
	CheckOracle bool `json:"check_oracle"`
	// Trace includes per-declaration records in the report.
	Trace bool `json:"trace,omitempty"`
	// Workers is the host-mode submit pool size (default 8).
	Workers int `json:"workers,omitempty"`
	// MaxEvents bounds the sim event loop (default scales with expected
	// arrivals); a run that hits it reports EventsExhausted.
	MaxEvents int `json:"max_events,omitempty"`
	// SettleNs bounds the host-mode post-admission grace period.
	SettleNs int64 `json:"settle_ns,omitempty"`
	// Interrupt, when non-nil, aborts the run early once it becomes
	// readable (callers close it; cmhload does on SIGINT/SIGTERM).
	// Admission stops, the settle phase is skipped, and the report is
	// returned with Interrupted set — partial but well-formed. The
	// deferred oracle audit is skipped too: it is only exact at
	// quiescence, which an interrupted run never reached.
	Interrupt <-chan struct{} `json:"-"`
}

// interrupted reports whether the run's interrupt channel is readable.
func (cfg *OpenLoopConfig) interrupted() bool {
	if cfg.Interrupt == nil {
		return false
	}
	select {
	case <-cfg.Interrupt:
		return true
	default:
		return false
	}
}

// Validate rejects configurations the generator cannot run safely. It
// builds the key distribution once to surface parameter errors.
func (cfg OpenLoopConfig) Validate() error {
	if cfg.Runtime != RuntimeSim && cfg.Runtime != RuntimeHost {
		return fmt.Errorf("workload: runtime must be %q or %q, got %q", RuntimeSim, RuntimeHost, cfg.Runtime)
	}
	if cfg.Sites < 1 || cfg.Sites > maxOpenLoopSites {
		return fmt.Errorf("workload: sites must be in [1,%d], got %d", maxOpenLoopSites, cfg.Sites)
	}
	if cfg.Keys < 1 || cfg.Keys > maxOpenLoopKeys {
		return fmt.Errorf("workload: keys must be in [1,%d], got %d", maxOpenLoopKeys, cfg.Keys)
	}
	if cfg.RatePerSec <= 0 || cfg.RatePerSec > maxOpenLoopRate {
		return fmt.Errorf("workload: rate must be in (0,%d] arrivals/sec, got %v", maxOpenLoopRate, cfg.RatePerSec)
	}
	if cfg.DurationNs <= 0 || cfg.DurationNs > maxOpenLoopDuration {
		return fmt.Errorf("workload: duration must be in (0,%v], got %v", time.Duration(maxOpenLoopDuration), time.Duration(cfg.DurationNs))
	}
	expected := cfg.RatePerSec * float64(cfg.DurationNs) / 1e9
	if cfg.MaxTxns > 0 && float64(cfg.MaxTxns) < expected {
		expected = float64(cfg.MaxTxns)
	}
	if expected > maxOpenLoopArrivals {
		return fmt.Errorf("workload: schedule admits ~%.0f transactions, cap is %d (lower rate/duration or set max_txns)", expected, maxOpenLoopArrivals)
	}
	if cfg.MaxTxns < 0 {
		return fmt.Errorf("workload: max_txns must be >= 0, got %d", cfg.MaxTxns)
	}
	if err := cfg.Mix.validate(cfg.Keys); err != nil {
		return err
	}
	if cfg.ThinkNs < 0 || cfg.HoldNs < 0 || cfg.DelayNs < 0 || cfg.BackoffNs < 0 || cfg.SettleNs < 0 {
		return fmt.Errorf("workload: think/hold/delay/backoff/settle durations must be >= 0")
	}
	if cfg.Shards < 0 || cfg.Shards > 256 {
		return fmt.Errorf("workload: shards must be in [0,256], got %d", cfg.Shards)
	}
	if cfg.Workers < 0 || cfg.Workers > 256 {
		return fmt.Errorf("workload: workers must be in [0,256], got %d", cfg.Workers)
	}
	if cfg.MaxEvents < 0 {
		return fmt.Errorf("workload: max_events must be >= 0, got %d", cfg.MaxEvents)
	}
	if _, _, err := victimPolicy(cfg.Victim); err != nil {
		return err
	}
	if cfg.Runtime == RuntimeHost && cfg.CheckOracle && cfg.Victim != VictimNone {
		return fmt.Errorf("workload: host-mode oracle audit runs at quiescence and needs victim %q (aborts would dissolve the cycles before the audit)", VictimNone)
	}
	if _, err := NewKeyDist(cfg.Dist, cfg.keyDistConfig()); err != nil {
		return err
	}
	return nil
}

func (cfg OpenLoopConfig) keyDistConfig() KeyDistConfig {
	return KeyDistConfig{Keys: cfg.Keys, Theta: cfg.Theta, HotFrac: cfg.HotFrac, HotOpFrac: cfg.HotOpFrac}
}

// victimPolicy maps a policy name to the controller's Resolve/Victim
// settings.
func victimPolicy(name string) (resolve bool, pol ddb.VictimPolicy, err error) {
	switch name {
	case VictimNone:
		return false, ddb.VictimDetected, nil
	case VictimDetected:
		return true, ddb.VictimDetected, nil
	case VictimYoungest:
		return true, ddb.VictimYoungest, nil
	case VictimRandom:
		return true, ddb.VictimRandom, nil
	default:
		return false, 0, fmt.Errorf("workload: unknown victim policy %q (have none, detected, youngest, random)", name)
	}
}

// normalized fills defaults on a copy.
func (cfg OpenLoopConfig) normalized() OpenLoopConfig {
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	if cfg.DelayNs == 0 {
		cfg.DelayNs = 2 * int64(time.Millisecond)
	}
	if cfg.HoldNs == 0 {
		cfg.HoldNs = int64(time.Millisecond)
	}
	if cfg.Retry && cfg.BackoffNs == 0 {
		cfg.BackoffNs = 20 * int64(time.Millisecond)
	}
	if cfg.SettleNs == 0 {
		cfg.SettleNs = 3*int64(time.Second) + 4*cfg.DelayNs
	}
	if cfg.MaxEvents == 0 {
		expected := cfg.RatePerSec * float64(cfg.DurationNs) / 1e9
		if cfg.MaxTxns > 0 && float64(cfg.MaxTxns) < expected {
			expected = float64(cfg.MaxTxns)
		}
		ev := int64(expected * 200)
		if ev < 1<<20 {
			ev = 1 << 20
		}
		if ev > 1<<26 {
			ev = 1 << 26
		}
		cfg.MaxEvents = int(ev)
	}
	return cfg
}

// Declaration records one deadlock declaration made during a run.
type Declaration struct {
	// Txn/Site identify the declared agent; Initiator/N the computation
	// tag that declared it.
	Txn       id.Txn  `json:"txn"`
	Site      id.Site `json:"site"`
	Initiator id.Site `json:"initiator"`
	N         uint64  `json:"n"`
	// AtNs is the declaration instant (virtual or wall); LatencyUs the
	// block-to-declaration time, -1 if the target's wait start was not
	// observed.
	AtNs      int64 `json:"at_ns"`
	LatencyUs int64 `json:"latency_us"`
	// Checked/True carry the oracle's verdict when CheckOracle is on.
	Checked bool `json:"checked"`
	True    bool `json:"true"`
}

// Report is the machine-readable result of one open-loop run.
type Report struct {
	Runtime    string  `json:"runtime"`
	Seed       int64   `json:"seed"`
	Sites      int     `json:"sites"`
	Keys       int64   `json:"keys"`
	Dist       string  `json:"dist"`
	Victim     string  `json:"victim"`
	RatePerSec float64 `json:"rate_per_sec"`
	// DurationSec is the admission window; WallSec the full wall-clock
	// run time (host only — zero under sim, where time is virtual).
	DurationSec float64 `json:"duration_sec"`
	WallSec     float64 `json:"wall_sec"`

	Started     int64 `json:"started"`
	Committed   int64 `json:"committed"`
	Aborted     int64 `json:"aborted"`
	Resubmitted int64 `json:"resubmitted"`
	// Stuck counts admitted transactions with no terminal outcome at
	// the end of the run: still in flight, or deadlocked under victim
	// "none".
	Stuck int64 `json:"stuck"`

	Deadlocks      int64 `json:"deadlocks"`
	FalseDeadlocks int64 `json:"false_deadlocks"`
	OracleChecked  bool  `json:"oracle_checked"`
	// UncoveredCycles counts cyclic strongly connected components of
	// the dark wait-for graph at quiescence containing no declared
	// agent — the paper's "no missed deadlocks" property, audited under
	// CheckOracle. Nonzero only on a completeness violation.
	UncoveredCycles int64 `json:"uncovered_cycles"`

	DeadlocksPer1kCommits float64 `json:"deadlocks_per_1k_commits"`
	CommitsPerSec         float64 `json:"commits_per_sec"`
	ProbesSent            uint64  `json:"probes_sent"`
	Computations          uint64  `json:"computations"`
	ProbesPerCommit       float64 `json:"probes_per_commit"`
	ProtocolErrors        uint64  `json:"protocol_errors"`

	DetectCount  uint64  `json:"detect_count"`
	DetectP50Us  int64   `json:"detect_p50_us"`
	DetectP90Us  int64   `json:"detect_p90_us"`
	DetectP99Us  int64   `json:"detect_p99_us"`
	DetectMaxUs  int64   `json:"detect_max_us"`
	DetectMeanUs float64 `json:"detect_mean_us"`

	EventsExhausted bool `json:"events_exhausted,omitempty"`
	// Interrupted marks a run cut short through OpenLoopConfig.Interrupt
	// (cmhload sets it on SIGINT/SIGTERM): every figure is a valid
	// partial measurement, but the admission window was not completed
	// and no quiescence audit ran.
	Interrupted  bool          `json:"interrupted,omitempty"`
	Declarations []Declaration `json:"declarations,omitempty"`
}

// olSpec is the retained script of an admitted transaction (retry
// resubmits it verbatim under a bumped incarnation).
type olSpec struct {
	home  id.Site
	steps []ddb.LockStep
}

// olRun is the shared state of one open-loop run, used identically by
// both runtimes; under host the callbacks fire on shard goroutines, so
// everything mutable sits behind mu (the histogram is internally
// atomic).
type olRun struct {
	cfg          OpenLoopConfig
	gen          *txnGen
	ctrls        []*ddb.Controller
	oracle       *ddb.Oracle
	timers       engine.Timers
	now          func() int64
	resolve      bool
	victim       ddb.VictimPolicy
	instantCheck bool
	hist         *metrics.Hist

	mu        sync.Mutex
	rng       *rand.Rand
	waitStart map[id.Agent]int64
	specs     map[id.Txn]olSpec
	incs      map[id.Txn]uint32
	done      map[id.Txn]bool
	started   int64
	committed int64
	aborted   int64
	resub     int64
	declared  int64
	falseDecl int64
	decls     []Declaration
	runErr    error
}

func newOlRun(cfg OpenLoopConfig, timers engine.Timers, now func() int64, instantCheck bool) (*olRun, error) {
	dist, err := NewKeyDist(cfg.Dist, cfg.keyDistConfig())
	if err != nil {
		return nil, err
	}
	resolve, pol, err := victimPolicy(cfg.Victim)
	if err != nil {
		return nil, err
	}
	return &olRun{
		cfg:          cfg,
		gen:          &txnGen{dist: dist, mix: cfg.Mix, sites: cfg.Sites, keys: cfg.Keys},
		timers:       timers,
		now:          now,
		resolve:      resolve,
		victim:       pol,
		instantCheck: instantCheck,
		hist:         metrics.NewHist(),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		waitStart:    make(map[id.Agent]int64),
		specs:        make(map[id.Txn]olSpec),
		incs:         make(map[id.Txn]uint32),
		done:         make(map[id.Txn]bool),
	}, nil
}

// buildControllers wires cfg.Sites controllers onto the transport with
// the run's callbacks; key k is homed at site k % Sites.
func (r *olRun) buildControllers(tr transport.Transport) error {
	sites := r.cfg.Sites
	home := func(res id.Resource) id.Site { return id.Site(int(res) % sites) }
	r.ctrls = make([]*ddb.Controller, sites)
	for i := 0; i < sites; i++ {
		c, err := ddb.NewController(ddb.Config{
			Site:         id.Site(i),
			Transport:    tr,
			Timers:       r.timers,
			ResourceHome: home,
			Mode:         ddb.InitiateOnWaitDelay,
			Delay:        r.cfg.DelayNs,
			Resolve:      r.resolve,
			Victim:       r.victim,
			StepDelay:    r.cfg.ThinkNs,
			HoldTime:     r.cfg.HoldNs,
			OnDeadlock:   r.onDeadlock,
			OnCommit:     r.onCommit,
			OnAbort:      r.onAbort,
			OnWaitStart:  r.onWaitStart,
			OnWaitEnd:    r.onWaitEnd,
		})
		if err != nil {
			return err
		}
		r.ctrls[i] = c
	}
	r.oracle = ddb.NewOracle(r.ctrls)
	return nil
}

// nextGapNs draws the next Poisson interarrival gap.
func (r *olRun) nextGapNs() int64 {
	r.mu.Lock()
	g := r.rng.ExpFloat64()
	r.mu.Unlock()
	ns := int64(g * 1e9 / r.cfg.RatePerSec)
	if ns < 1 {
		ns = 1
	}
	return ns
}

// submitOne admits the next transaction; false once MaxTxns is hit.
func (r *olRun) submitOne() bool {
	r.mu.Lock()
	if r.cfg.MaxTxns > 0 && r.started >= r.cfg.MaxTxns {
		r.mu.Unlock()
		return false
	}
	txn := id.Txn(r.started)
	r.started++
	home, steps := r.gen.next(r.rng)
	r.specs[txn] = olSpec{home: home, steps: steps}
	r.mu.Unlock()
	if err := r.ctrls[home].Submit(txn, 0, steps); err != nil {
		r.fail(err)
		return false
	}
	return true
}

func (r *olRun) fail(err error) {
	r.mu.Lock()
	if r.runErr == nil {
		r.runErr = err
	}
	r.mu.Unlock()
}

func (r *olRun) startedCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.started
}

// progress is the settle loop's activity signature.
func (r *olRun) progress() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.committed + r.aborted + r.declared + r.resub
}

func (r *olRun) onWaitStart(agent id.Agent) {
	t := r.now()
	r.mu.Lock()
	r.waitStart[agent] = t
	r.mu.Unlock()
}

func (r *olRun) onWaitEnd(agent id.Agent) {
	r.mu.Lock()
	delete(r.waitStart, agent)
	r.mu.Unlock()
}

// onDeadlock records a declaration: block-to-declaration latency into
// the histogram plus the trace entry. The instantaneous oracle audit
// runs only under sim — the controllers fire this callback on their
// shard goroutines under host, where a cross-shard oracle snapshot
// could deadlock two concurrently declaring shards; host audits run
// deferred at quiescence instead (see runHost).
func (r *olRun) onDeadlock(target id.Agent, tag id.CtrlTag) {
	t := r.now()
	checked, onCycle := false, false
	if r.cfg.CheckOracle && r.instantCheck {
		checked = true
		onCycle = r.oracle.OnCycle(target)
	}
	r.mu.Lock()
	r.declared++
	lat := int64(-1)
	if ws, ok := r.waitStart[target]; ok {
		lat = t - ws
	}
	if checked && !onCycle {
		r.falseDecl++
	}
	r.decls = append(r.decls, Declaration{
		Txn:       target.Txn,
		Site:      target.Site,
		Initiator: tag.Initiator,
		N:         tag.N,
		AtNs:      t,
		LatencyUs: lat / 1000,
		Checked:   checked,
		True:      onCycle,
	})
	r.mu.Unlock()
	if lat >= 0 {
		r.hist.Record(lat / 1000)
	}
}

func (r *olRun) onCommit(txn id.Txn) {
	r.mu.Lock()
	r.committed++
	r.done[txn] = true
	r.mu.Unlock()
}

// onAbort counts the abort and, under Retry, schedules a resubmission
// with linear backoff plus deterministic jitter.
func (r *olRun) onAbort(txn id.Txn) {
	r.mu.Lock()
	r.aborted++
	if !r.cfg.Retry {
		r.done[txn] = true
		r.mu.Unlock()
		return
	}
	if r.done[txn] {
		r.mu.Unlock()
		return
	}
	spec := r.specs[txn]
	attempt := r.incs[txn]
	inc := attempt + 1
	r.incs[txn] = inc
	r.mu.Unlock()

	backoff := r.cfg.BackoffNs * int64(attempt+1)
	if r.cfg.BackoffNs > 0 {
		backoff += int64(retryJitter(txn, attempt) % uint64(r.cfg.BackoffNs))
	}
	r.timers.After(backoff, func() {
		r.mu.Lock()
		stale := r.done[txn] || r.incs[txn] != inc
		if !stale {
			r.resub++
		}
		r.mu.Unlock()
		if stale {
			return
		}
		if err := r.ctrls[spec.home].Submit(txn, inc, spec.steps); err != nil {
			r.fail(err)
		}
	})
}

// retryJitter is a splitmix64 hash of (txn, attempt): deterministic
// across runs and safe to compute on any goroutine, unlike the shared
// seeded rng.
func retryJitter(txn id.Txn, attempt uint32) uint64 {
	x := uint64(uint32(txn))<<32 ^ uint64(attempt)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// auditDeferred runs the quiescence-time oracle audit (host mode,
// victim "none": cycles persist, so a deferred OnCycle verdict is
// exact for every declaration).
func (r *olRun) auditDeferred() {
	r.mu.Lock()
	n := len(r.decls)
	r.mu.Unlock()
	for i := 0; i < n; i++ {
		r.mu.Lock()
		d := r.decls[i]
		r.mu.Unlock()
		onCycle := r.oracle.OnCycle(id.Agent{Txn: d.Txn, Site: d.Site})
		r.mu.Lock()
		r.decls[i].Checked = true
		r.decls[i].True = onCycle
		if !onCycle {
			r.falseDecl++
		}
		r.mu.Unlock()
	}
}

// uncoveredCycles audits completeness at quiescence: every cyclic SCC
// of the dark wait-for graph must contain at least one declared agent
// (the member whose wait closed the cycle initiates after formation
// and, by the paper's completeness theorem, declares). Returns the
// number of cyclic SCCs with no declared member.
func (r *olRun) uncoveredCycles() int64 {
	edges := r.oracle.DarkEdges()
	adj := make(map[id.Agent][]id.Agent)
	nodes := make(map[id.Agent]bool)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
		nodes[e.From] = true
		nodes[e.To] = true
	}
	r.mu.Lock()
	declared := make(map[id.Agent]bool, len(r.decls))
	for _, d := range r.decls {
		declared[id.Agent{Txn: d.Txn, Site: d.Site}] = true
	}
	r.mu.Unlock()

	// Iterative Tarjan SCC.
	index := make(map[id.Agent]int, len(nodes))
	low := make(map[id.Agent]int, len(nodes))
	onStack := make(map[id.Agent]bool, len(nodes))
	var stack []id.Agent
	next := 0
	var uncovered int64

	type frame struct {
		v  id.Agent
		ei int
	}
	for v := range nodes {
		if _, seen := index[v]; seen {
			continue
		}
		frames := []frame{{v: v}}
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if _, seen := index[w]; !seen {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Root check and pop.
			if low[f.v] == index[f.v] {
				var members []id.Agent
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					members = append(members, w)
					if w == f.v {
						break
					}
				}
				cyclic := len(members) > 1
				if !cyclic {
					for _, w := range adj[members[0]] {
						if w == members[0] {
							cyclic = true
							break
						}
					}
				}
				if cyclic {
					covered := false
					for _, m := range members {
						if declared[m] {
							covered = true
							break
						}
					}
					if !covered {
						uncovered++
					}
				}
			}
			parent := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[parent] < low[p.v] {
					low[p.v] = low[parent]
				}
			}
		}
	}
	return uncovered
}

// report assembles the Report. Controller stats are snapshotted before
// taking r.mu: Stats serializes through the shard loops, which may be
// executing a callback that needs r.mu.
func (r *olRun) report() *Report {
	var probes, comps, perrs uint64
	for _, c := range r.ctrls {
		st := c.Stats()
		probes += st.ProbesSent
		comps += st.Computations
		perrs += st.ProtocolErrors
	}
	hs := r.hist.Stats()

	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{
		Runtime:        r.cfg.Runtime,
		Seed:           r.cfg.Seed,
		Sites:          r.cfg.Sites,
		Keys:           r.cfg.Keys,
		Dist:           r.cfg.Dist,
		Victim:         r.cfg.Victim,
		RatePerSec:     r.cfg.RatePerSec,
		DurationSec:    float64(r.cfg.DurationNs) / 1e9,
		Started:        r.started,
		Committed:      r.committed,
		Aborted:        r.aborted,
		Resubmitted:    r.resub,
		Stuck:          r.started - int64(len(r.done)),
		Deadlocks:      r.declared,
		FalseDeadlocks: r.falseDecl,
		OracleChecked:  r.cfg.CheckOracle,
		ProbesSent:     probes,
		Computations:   comps,
		ProtocolErrors: perrs,
		DetectCount:    hs.Count,
		DetectP50Us:    hs.P50,
		DetectP90Us:    hs.P90,
		DetectP99Us:    hs.P99,
		DetectMaxUs:    hs.Max,
		DetectMeanUs:   hs.Mean,
	}
	if rep.DurationSec > 0 {
		rep.CommitsPerSec = float64(r.committed) / rep.DurationSec
	}
	if r.committed > 0 {
		rep.DeadlocksPer1kCommits = 1000 * float64(r.declared) / float64(r.committed)
		rep.ProbesPerCommit = float64(probes) / float64(r.committed)
	}
	if r.cfg.Trace {
		rep.Declarations = append([]Declaration(nil), r.decls...)
	}
	return rep
}

// RunOpenLoop validates, normalizes and executes one open-loop run.
func RunOpenLoop(cfg OpenLoopConfig) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	switch cfg.Runtime {
	case RuntimeSim:
		return runOpenLoopSim(cfg)
	default:
		return runOpenLoopHost(cfg)
	}
}

// runOpenLoopSim drives the run on the discrete-event scheduler: the
// arrival pump is itself an event, so the whole run — arrivals, lock
// traffic, probe computations, declarations — is one deterministic
// event sequence and the report is a pure function of the config.
func runOpenLoopSim(cfg OpenLoopConfig) (*Report, error) {
	sched := sim.New(cfg.Seed)
	net := transport.NewSimNet(sched, nil)
	r, err := newOlRun(cfg, SimTimers{Sched: sched}, func() int64 { return int64(sched.Now()) }, true)
	if err != nil {
		return nil, err
	}
	if err := r.buildControllers(net); err != nil {
		return nil, err
	}
	horizon := sim.Time(cfg.DurationNs)
	var pump func()
	pump = func() {
		if sched.Now() >= horizon {
			return
		}
		if !r.submitOne() {
			return
		}
		sched.After(sim.Duration(r.nextGapNs()), pump)
	}
	sched.After(sim.Duration(r.nextGapNs()), pump)

	// Drain everything the admission window spawned: with aborts on,
	// retries eventually commit and the queue empties; with victim
	// "none", deadlocked agents stop generating events after their one
	// detection round. MaxEvents is the runaway guard.
	steps := 0
	interrupted := false
	for steps < cfg.MaxEvents && sched.Step() {
		steps++
		// The interrupt poll is amortized: one channel peek per 4096
		// virtual events keeps the loop hot while still stopping within
		// microseconds of a signal.
		if steps&4095 == 0 && cfg.interrupted() {
			interrupted = true
			break
		}
	}
	rep := r.report()
	rep.Interrupted = interrupted
	rep.EventsExhausted = !interrupted && sched.Pending() > 0
	if cfg.CheckOracle && !interrupted {
		rep.UncoveredCycles = r.uncoveredCycles()
	}
	r.mu.Lock()
	err = r.runErr
	r.mu.Unlock()
	return rep, err
}

// sleepOrInterrupt sleeps for d unless the interrupt channel becomes
// readable first, reporting whether it was interrupted.
func sleepOrInterrupt(d time.Duration, interrupt <-chan struct{}) bool {
	if interrupt == nil {
		time.Sleep(d)
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-interrupt:
		return true
	case <-t.C:
		return false
	}
}

// wallTimers is the real-time engine.Timers for host runs.
type wallTimers struct{}

func (wallTimers) After(d int64, fn func()) { time.AfterFunc(time.Duration(d), fn) }

// runOpenLoopHost drives the run on the sharded engine Host in real
// time: a pacer goroutine turns the Poisson schedule into arrival
// tokens (enqueued on schedule whether or not earlier transactions
// finished — open loop), a worker pool turns tokens into Submit calls,
// and a settle phase lets in-flight transactions finish before the
// deferred oracle audit and the final snapshot.
func runOpenLoopHost(cfg OpenLoopConfig) (*Report, error) {
	host := engine.NewHost(engine.Options{Shards: cfg.Shards})
	defer host.Close()
	t0 := time.Now()
	r, err := newOlRun(cfg, wallTimers{}, func() int64 { return time.Since(t0).Nanoseconds() }, false)
	if err != nil {
		return nil, err
	}
	if err := r.buildControllers(host); err != nil {
		return nil, err
	}

	arrivals := make(chan struct{}, 1<<16)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range arrivals {
				r.submitOne()
			}
		}()
	}

	// Pacer: absolute-time schedule; sleeps only when comfortably
	// ahead, so sub-millisecond gaps batch into small bursts rather
	// than being stretched by sleep granularity. Sleeps race the
	// interrupt channel so a signal stops admission immediately instead
	// of after the next gap.
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.DurationNs))
	next := start
	interrupted := false
	for !interrupted {
		next = next.Add(time.Duration(r.nextGapNs()))
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > time.Millisecond {
			interrupted = sleepOrInterrupt(d, cfg.Interrupt)
		} else {
			interrupted = cfg.interrupted()
		}
		if interrupted {
			break
		}
		arrivals <- struct{}{}
		if cfg.MaxTxns > 0 && r.startedCount() >= cfg.MaxTxns {
			break
		}
	}
	close(arrivals)
	wg.Wait()
	admitSec := time.Since(start).Seconds()

	// Settle: poll the activity signature until it goes quiet (or the
	// grace budget runs out — stuck work is reported, not waited on).
	// An interrupted run skips settling: the caller asked for the exit,
	// not for in-flight transactions to finish.
	const poll = 25 * time.Millisecond
	quietFor, waited := time.Duration(0), time.Duration(0)
	prev := r.progress()
	for !interrupted && quietFor < 8*poll && waited < time.Duration(cfg.SettleNs) {
		if sleepOrInterrupt(poll, cfg.Interrupt) {
			interrupted = true
			break
		}
		waited += poll
		if cur := r.progress(); cur == prev {
			quietFor += poll
		} else {
			quietFor, prev = 0, cur
		}
	}
	host.Drain()
	var uncovered int64
	if cfg.CheckOracle && !interrupted {
		r.auditDeferred()
		uncovered = r.uncoveredCycles()
	}
	rep := r.report()
	rep.UncoveredCycles = uncovered
	rep.Interrupted = interrupted
	// The deferred audit never ran, so the report must not claim an
	// oracle verdict.
	if interrupted {
		rep.OracleChecked = false
	}
	rep.DurationSec = admitSec
	if rep.DurationSec > 0 {
		rep.CommitsPerSec = float64(rep.Committed) / rep.DurationSec
	}
	rep.WallSec = time.Since(start).Seconds()
	r.mu.Lock()
	err = r.runErr
	r.mu.Unlock()
	return rep, err
}
