package conformance

import (
	"fmt"
	"sync/atomic"

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

// Durable crash/restore conformance (DESIGN.md §11). Both runners here
// drive the standard three-phase workload, durably kill one side of
// the deployment mid-workload, bring it back from its checkpoint plus
// log tail, and demand the verdict stay byte-identical to the
// fault-free run's — recovery that is invisible to the algorithm.
//
// The TCP leg kills an engine.Host with an attached WAL: the host is
// abandoned without a final checkpoint at a point where the log holds
// a wire-only tail beyond the last cut (the A-side probe burst), so
// the rebuild genuinely exercises checkpoint load, deterministic tail
// replay, resequencer priming and the surviving sender's reconnect.
//
// The sim leg runs the faultinject.Net's crash-durable/restore verbs
// mid-storm: the dying process's MarshalState is the checkpoint (the
// sim analogue of "the WAL journaled every delivered frame"), the held
// in-flight frames are the unacked tail the durable transport replays,
// and the restore lands inside the lease window so no survivor ever
// sees a failure-detector verdict.

// RunTCPCrashRestore replays the spec on the two-host mux topology
// with host B journaling to a WAL in walDir under the given fsync
// policy (wal.SyncAlways drives the group barrier of DESIGN.md §11 with
// a real fsync per group; the other policies take the same staged path
// with a free commit). After the sweep reaches
// its fixed point, B checkpoints; the A-side blocked processes then
// probe, leaving a wire-only record tail beyond the checkpoint. With
// crash set, host B is then killed without a final checkpoint and
// rebuilt on a fresh port from walDir (restore → prime → finish →
// reconnect); either way every still-blocked process probes and the
// canonical verdict is returned. The crash=true and crash=false legs
// must be byte-identical — and identical to RunSim's verdict.
func RunTCPCrashRestore(spec Spec, shards int, walDir string, policy wal.SyncPolicy, crash bool) (string, error) {
	if spec.N < 2 || spec.MaxBatch < 1 {
		return "", fmt.Errorf("spec needs N >= 2 and MaxBatch >= 1, got N=%d MaxBatch=%d", spec.N, spec.MaxBatch)
	}
	split := spec.N / 2
	counters := metrics.NewCounters()
	oracle := wfg.NewGraphObserver(nil)

	tcpA := transport.NewTCP()
	defer tcpA.Close()
	if err := tcpA.ListenHost(muxHostA, "127.0.0.1:0"); err != nil {
		return "", err
	}
	hostOf := func(i int) transport.NodeID {
		if i < split {
			return muxHostA
		}
		return muxHostB
	}
	// muxPlace builds the split placement as a resolver; host B's address
	// changes across the crash rebuild, so each build installs a fresh
	// placement carrying the reborn listener on both endpoints.
	muxPlace := func(addrB string) transport.StaticPlacement {
		sp := transport.StaticPlacement{
			Hosts: map[transport.NodeID]transport.NodeID{},
			Addrs: map[transport.NodeID]string{muxHostA: tcpA.HostAddr(muxHostA)},
		}
		if addrB != "" {
			sp.Addrs[muxHostB] = addrB
		}
		for i := 0; i < spec.N; i++ {
			sp.Hosts[transport.NodeID(i)] = hostOf(i)
		}
		return sp
	}
	tcpA.SetResolver(muxPlace(""))
	hostA := engine.NewHost(engine.Options{Shards: shards, Transport: tcpA})
	defer hostA.Close()
	hostA.Observe(counters)
	hostA.Observe(oracle)

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
	newProc := func(i int, tr transport.Transport) error {
		pid := id.Proc(i)
		p, err := core.NewProcess(core.Config{
			ID:        pid,
			Transport: tr,
			Policy:    core.InitiateManually,
			OnRequest: func(id.Proc) { service(pid) },
			OnActive:  func() { service(pid) },
		})
		if err != nil {
			return err
		}
		procs[i] = p
		return nil
	}
	for i := 0; i < split; i++ {
		if err := newProc(i, hostA); err != nil {
			return "", err
		}
	}

	// Host B is built — and after the crash, rebuilt — by this helper:
	// open the log, attach it before any registration, register the
	// B-side processes, then run restore → prime → finish-restore and
	// only then point the host links at each other. On the first build
	// the directory is blank and Restore merely establishes the
	// durability generation; on the rebuild it loads the checkpoint and
	// replays the tail.
	var (
		tcpB  *transport.TCP
		hostB *engine.Host
		wlog  *wal.Log
	)
	closeB := func(finalCkpt bool) {
		if hostB == nil {
			return
		}
		if finalCkpt {
			_ = hostB.Checkpoint()
		}
		hostB.Close()
		tcpB.Close()
		wlog.Close()
		hostB, tcpB, wlog = nil, nil, nil
	}
	defer func() { closeB(false) }()
	buildB := func() error {
		w, err := wal.Open(wal.Options{Dir: walDir, Sync: policy})
		if err != nil {
			return err
		}
		tb := transport.NewTCP()
		fail := func(err error) error {
			tb.Close()
			w.Close()
			return err
		}
		if err := tb.ListenHost(muxHostB, "127.0.0.1:0"); err != nil {
			return fail(err)
		}
		sp := muxPlace(tb.HostAddr(muxHostB))
		tb.SetResolver(sp)
		hb := engine.NewHost(engine.Options{Shards: shards, Transport: tb})
		failHost := func(err error) error {
			hb.Close()
			return fail(err)
		}
		hb.Observe(counters)
		hb.Observe(oracle)
		hb.AttachWAL(w, engine.DurabilityHooks{Incarnation: func() uint64 {
			inc, _ := tb.Incarnation(muxHostB)
			return inc
		}})
		for i := split; i < spec.N; i++ {
			if err := newProc(i, hb); err != nil {
				return failHost(err)
			}
		}
		if err := tb.SetDeliveryLog(muxHostB, hb); err != nil {
			return failHost(err)
		}
		st, err := hb.Restore()
		if err != nil {
			return failHost(err)
		}
		if st.Found {
			if err := tb.PrimeInbox(muxHostB, st.Inc, st.Cursors); err != nil {
				return failHost(err)
			}
		}
		if err := hb.FinishRestore(); err != nil {
			return failHost(err)
		}
		tcpA.SetResolver(sp)
		tcpB, hostB, wlog = tb, hb, w
		return nil
	}
	if err := buildB(); err != nil {
		return "", err
	}
	quiesce := pollQuiesce(counters)

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

	// Phase 2: open the gate and sweep to the fixed point.
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

	// Checkpoint host B at the swept fixed point, then let only the
	// A-side blocked processes probe: every probe that crosses into B
	// lands in the log BEYOND the checkpoint, so the crash leg has a
	// genuine wire tail to replay, not just a state snapshot to load.
	if err := hostB.Checkpoint(); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	for i := 0; i < split; i++ {
		if procs[i].Blocked() {
			procs[i].StartProbe()
		}
	}
	if err := quiesce(); err != nil {
		return "", fmt.Errorf("after A-side probes: %w", err)
	}

	if crash {
		closeB(false) // abandoned: no final checkpoint, only the WAL survives
		if err := buildB(); err != nil {
			return "", fmt.Errorf("rebuild: %w", err)
		}
	}

	// Phase 3: every still-blocked process initiates detection — the
	// same burst in both legs, so the verdicts are comparable
	// byte-for-byte.
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

// RunSimCrashRestore replays the spec on the deterministic fault net
// and durably crashes one node mid-storm: its state is captured at the
// crash instant (MarshalState — the checkpoint), in-flight and
// late-sent frames are held by the net (the unacked tail the durable
// transport replays), and the node is restored from the capture inside
// the lease window, so no survivor ever hears a failure-detector
// verdict. The returned verdict must be byte-identical to RunSim's.
func RunSimCrashRestore(spec Spec, node transport.NodeID) (string, error) {
	if spec.N < 2 || spec.MaxBatch < 1 {
		return "", fmt.Errorf("spec needs N >= 2 and MaxBatch >= 1, got N=%d MaxBatch=%d", spec.N, spec.MaxBatch)
	}
	if int(node) < 0 || int(node) >= spec.N {
		return "", fmt.Errorf("crash node %d out of range [0,%d)", node, spec.N)
	}
	sched := sim.New(spec.Seed)
	oracle := wfg.NewGraphObserver(nil)
	procs := make([]*core.Process, spec.N)

	gate := false
	service := func(pid id.Proc) {
		if !gate {
			return
		}
		p := procs[pid]
		if p.Blocked() {
			return
		}
		if _, err := p.GrantAll(); err != nil {
			panic(fmt.Sprintf("conformance: grant-all %v: %v", pid, err))
		}
	}

	// A restore inside the lease window is a reconnect, not a recovery:
	// the net still announces PeerUp (the ack stream resumed), but the
	// TCP lease layer only surfaces verdicts for outages it announced —
	// mirror that by passing through only the ups that reverse a down.
	type observerPeer struct{ observer, peer transport.NodeID }
	downSeen := make(map[observerPeer]bool)
	var captured []byte
	var spawn func(node transport.NodeID) error
	net := faultinject.NewNet(sched, faultinject.NetOptions{
		LeaseDelay: 50 * sim.Millisecond,
		OnCrashDurable: func(n transport.NodeID) {
			captured = procs[n].MarshalState()
		},
		OnRestore: func(n transport.NodeID) {
			if err := spawn(n); err != nil {
				panic(fmt.Sprintf("conformance: respawn %d: %v", n, err))
			}
			if err := procs[n].RestoreState(captured); err != nil {
				panic(fmt.Sprintf("conformance: restore state of %d: %v", n, err))
			}
		},
		Listener: recoveryWiring{
			down: func(observer, peer transport.NodeID) {
				downSeen[observerPeer{observer, peer}] = true
				procs[observer].PeerDown(id.Proc(peer))
			},
			up: func(observer, peer transport.NodeID) {
				if !downSeen[observerPeer{observer, peer}] {
					return
				}
				delete(downSeen, observerPeer{observer, peer})
				procs[observer].PeerUp(id.Proc(peer))
				procs[observer].Reannounce(id.Proc(peer))
			},
		},
	})
	net.Observe(oracle)

	spawn = func(node transport.NodeID) error {
		pid := id.Proc(node)
		p, err := core.NewProcess(core.Config{
			ID:        pid,
			Transport: net,
			Timers:    workload.SimTimers{Sched: sched},
			Policy:    core.InitiateManually,
			OnRequest: func(id.Proc) { service(pid) },
			OnActive:  func() { service(pid) },
		})
		if err != nil {
			return err
		}
		procs[node] = p
		return nil
	}
	for i := 0; i < spec.N; i++ {
		if err := spawn(transport.NodeID(i)); err != nil {
			return "", err
		}
	}

	quiesce := func(phase string) error {
		const maxEvents = 10_000_000
		for n := 0; sched.Step(); n++ {
			if n >= maxEvents {
				return fmt.Errorf("after %s: sim not quiescing after %d events", phase, maxEvents)
			}
		}
		return nil
	}

	// Phase 1: the storm — with the durable crash scheduled to land
	// while its frames are still in flight, and the restore well inside
	// the lease window.
	for i, batch := range spec.Batches() {
		if len(batch) == 0 {
			continue
		}
		if err := procs[i].Request(batch...); err != nil {
			return "", fmt.Errorf("storm: %w", err)
		}
	}
	plan, err := faultinject.Parse(fmt.Sprintf("crash-durable:%d@2ms; restore:%d@6ms", node, node))
	if err != nil {
		return "", fmt.Errorf("plan: %w", err)
	}
	if err := net.Install(plan); err != nil {
		return "", err
	}
	if err := quiesce("storm"); err != nil {
		return "", err
	}

	// Phases 2–3, exactly as RunSim.
	gate = true
	for _, p := range procs {
		if !p.Blocked() {
			if _, err := p.GrantAll(); err != nil {
				return "", fmt.Errorf("sweep: %w", err)
			}
		}
	}
	if err := quiesce("sweep"); err != nil {
		return "", err
	}
	for _, p := range procs {
		if p.Blocked() {
			p.StartProbe()
		}
	}
	if err := quiesce("probes"); err != nil {
		return "", err
	}

	if len(downSeen) != 0 {
		return "", fmt.Errorf("restore escaped the lease window: %d down verdicts never reversed", len(downSeen))
	}
	v := verdict(procs, oracle)
	if err := crossCheck(procs, oracle); err != nil {
		return v, fmt.Errorf("oracle cross-check: %w", err)
	}
	return v, nil
}
