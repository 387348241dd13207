package conformance

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/id"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wal"
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
	d, err := newDriver(spec, nil)
	if err != nil {
		return "", err
	}
	m := &muxHosts{d: d, shards: shards}
	defer m.stop(1)
	defer m.stop(0)
	if err := m.listen(0); err != nil {
		return "", err
	}
	m.place(m.tcp[0])
	if err := m.start(0, nil); err != nil {
		return "", err
	}

	// buildB brings host B up — and after the crash, back — on a fresh
	// listener: open the log, attach it before any registration, spawn
	// the B-side processes, then run restore → prime → finish-restore,
	// and only then point A at B's address. On the first build the
	// directory is blank and Restore merely establishes the durability
	// generation; on the rebuild it loads the checkpoint and replays the
	// tail.
	buildB := func() error {
		w, err := wal.Open(wal.Options{Dir: walDir, Sync: policy})
		if err != nil {
			return err
		}
		m.log[1] = w
		if err := m.listen(1); err != nil {
			return err
		}
		tb := m.tcp[1]
		m.place(tb)
		err = m.start(1, func(h *engine.Host) {
			h.AttachWAL(w, engine.DurabilityHooks{Incarnation: func() uint64 {
				inc, _ := tb.Incarnation(muxIDs[1])
				return inc
			}})
		})
		if err != nil {
			return err
		}
		hb := m.host[1]
		if err := tb.SetDeliveryLog(muxIDs[1], hb); err != nil {
			return err
		}
		st, err := hb.Restore()
		if err != nil {
			return err
		}
		if st.Found {
			if err := tb.PrimeInbox(muxIDs[1], st.Inc, st.Cursors); err != nil {
				return err
			}
		}
		if err := hb.FinishRestore(); err != nil {
			return err
		}
		m.place(m.tcp[0])
		return nil
	}
	if err := buildB(); err != nil {
		return "", err
	}

	// Checkpoint host B at the swept fixed point, then let only the
	// A-side blocked processes probe: every probe that crosses into B
	// lands in the log BEYOND the checkpoint, so the crash leg has a
	// genuine wire tail to replay, not just a state snapshot to load.
	// The probe phase that follows is the same burst in both legs, so
	// the verdicts are comparable byte-for-byte.
	return d.run(hooks{swept: func() error {
		if err := m.host[1].Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		d.probe(0, spec.N/2)
		if err := d.settle("A-side probes"); err != nil {
			return err
		}
		if !crash {
			return nil
		}
		m.stop(1) // abandoned: no final checkpoint, only the WAL survives
		if err := buildB(); err != nil {
			return fmt.Errorf("rebuild: %w", err)
		}
		return nil
	}})
}

// RunSimCrashRestore replays the spec on the deterministic fault net
// and durably crashes one node mid-storm: its state is captured at the
// crash instant (MarshalState — the checkpoint), in-flight and
// late-sent frames are held by the net (the unacked tail the durable
// transport replays), and the node is restored from the capture inside
// the lease window, so no survivor ever hears a failure-detector
// verdict. The returned verdict must be byte-identical to RunSim's.
func RunSimCrashRestore(spec Spec, node transport.NodeID) (string, error) {
	sched := sim.New(spec.Seed)
	d, err := newDriver(spec, sched)
	if err != nil {
		return "", err
	}
	if int(node) < 0 || int(node) >= spec.N {
		return "", fmt.Errorf("crash node %d out of range [0,%d)", node, spec.N)
	}

	// A restore inside the lease window is a reconnect, not a recovery:
	// the net still announces PeerUp (the ack stream resumed), but the
	// TCP lease layer only surfaces verdicts for outages it announced —
	// mirror that by passing through only the ups that reverse a down.
	type observerPeer struct{ observer, peer transport.NodeID }
	downSeen := make(map[observerPeer]bool)
	var captured []byte
	var net *faultinject.Net
	net = faultinject.NewNet(sched, faultinject.NetOptions{
		LeaseDelay: 50 * sim.Millisecond,
		OnCrashDurable: func(n transport.NodeID) {
			captured = d.proc(int(n)).MarshalState()
		},
		OnRestore: func(n transport.NodeID) {
			if err := d.spawn(int(n), net); err != nil {
				panic(fmt.Sprintf("conformance: respawn %d: %v", n, err))
			}
			if err := d.proc(int(n)).RestoreState(captured); err != nil {
				panic(fmt.Sprintf("conformance: restore state of %d: %v", n, err))
			}
		},
		Listener: recoveryWiring{
			down: func(observer, peer transport.NodeID) {
				downSeen[observerPeer{observer, peer}] = true
				d.proc(int(observer)).PeerDown(id.Proc(peer))
			},
			up: func(observer, peer transport.NodeID) {
				if !downSeen[observerPeer{observer, peer}] {
					return
				}
				delete(downSeen, observerPeer{observer, peer})
				p := d.proc(int(observer))
				p.PeerUp(id.Proc(peer))
				p.Reannounce(id.Proc(peer))
			},
		},
	})
	d.watch(net)
	for i := 0; i < spec.N; i++ {
		if err := d.spawn(i, net); err != nil {
			return "", err
		}
	}

	// The durable crash lands while the storm's frames are still in
	// flight, and the restore well inside the lease window.
	return d.run(hooks{
		storming: func() error {
			plan, err := faultinject.Parse(fmt.Sprintf("crash-durable:%d@2ms; restore:%d@6ms", node, node))
			if err != nil {
				return fmt.Errorf("plan: %w", err)
			}
			return net.Install(plan)
		},
		probed: func() error {
			if len(downSeen) != 0 {
				return fmt.Errorf("restore escaped the lease window: %d down verdicts never reversed", len(downSeen))
			}
			return nil
		},
	})
}
