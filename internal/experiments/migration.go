package experiments

// E20 — cluster live migration: what moving a process between hosts
// costs while traffic is flowing at it. Three phases over a two-host
// cluster assembled by the control plane itself (gossip membership,
// consistent-hash placement, directory-resolved links — no static
// wiring): the steady intra-host pump rate before the move, the rate
// sustained across a mid-storm migration (with the unavailability
// window and the frames the protocol forwarded and replayed to keep
// per-pair FIFO intact), and the cross-host rate once the process
// lives on its new home. All figures are wall clock and printed, not
// gated; what the run checks is that no frame is lost or duplicated
// across the move and that exactly one migration left and arrived.

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/transport"
)

// E20Row is one phase of the migration experiment.
type E20Row struct {
	// Phase is "intra-host" (before the move), "migration" (the storm
	// the move lands in) or "cross-host" (after the move).
	Phase string
	// Frames is the number of probe envelopes pumped in this phase.
	Frames int
	// WallMs is first send to last delivery; KFramesPerSec the achieved
	// end-to-end rate in thousands of frames per second.
	WallMs        float64
	KFramesPerSec float64
	// MigrateMs is the unavailability window: from the Migrate call to
	// the instant the process is installed and stepping on the target
	// host (migration phase only).
	MigrateMs float64
	// FramesReplayed counts parked frames the target host replayed at
	// install; FramesForwarded counts frames the source host forwarded
	// along the committed route. Both are zero outside the migration
	// phase; their sum is the in-flight traffic the move preserved.
	FramesReplayed  uint64
	FramesForwarded uint64
}

// e20Proc is the migrated process: it counts deliveries and carries
// the count through the snapshot, so a lost or duplicated frame across
// the move shows up as a count mismatch.
type e20Proc struct {
	n atomic.Uint64
}

func (p *e20Proc) HandleMessage(transport.NodeID, msg.Message) { p.n.Add(1) }

func (p *e20Proc) MarshalState() []byte {
	w := engine.NewSnapWriter(8)
	w.U64(p.n.Load())
	return w.Bytes()
}

func (p *e20Proc) RestoreState(b []byte) error {
	r := engine.NewSnapReader(b)
	n := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	p.n.Store(n)
	return nil
}

// e20Host is one cluster node of the experiment topology.
type e20Host struct {
	host  transport.NodeID
	tcp   *transport.TCP
	dir   *cluster.Directory
	eng   *engine.Host
	agent *cluster.Agent
	proc  *e20Proc // the spawned process (both hosts share one pointer registry via spawn)
}

func (h *e20Host) close() {
	h.agent.Stop()
	h.eng.Close()
	h.tcp.Close()
}

// E20Migration assembles a fresh two-host cluster and runs the three
// phases around one live move. The unthrottled phases pump enough
// frames for a multi-tens-of-ms window; the migration storm is
// throttled to outlive the move, so its wall time is long regardless.
func E20Migration() ([]E20Row, *metrics.Table, error) {
	const (
		intraFrames = 100_000
		stormFrames = 50_000
		crossFrames = 50_000
	)
	rows, err := migrationLegs(intraFrames, stormFrames, crossFrames)
	if err != nil {
		return nil, nil, err
	}
	table := metrics.NewTable(
		"E20 — live migration: pump rate before, across, and after moving a process between hosts",
		"phase", "frames", "wall_ms", "kframes_per_s", "migrate_ms", "replayed", "forwarded")
	for _, row := range rows {
		table.AddRow(row.Phase, row.Frames, row.WallMs, row.KFramesPerSec,
			row.MigrateMs, row.FramesReplayed, row.FramesForwarded)
	}
	return rows, table, nil
}

// e20Node boots one cluster host with a fast gossip clock. The spawned
// process object is shared through proc so the driver can read the
// delivery count wherever the process currently lives.
func e20Node(host transport.NodeID, shards int, proc *e20Proc) (*e20Host, error) {
	h := &e20Host{host: host, proc: proc}
	h.tcp = transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: 64})
	if err := h.tcp.ListenHost(host, "127.0.0.1:0"); err != nil {
		h.tcp.Close()
		return nil, err
	}
	h.dir = cluster.NewDirectory(host, h.tcp.HostAddr(host), 1)
	h.tcp.SetResolver(h.dir)
	h.eng = engine.NewHost(engine.Options{
		Shards:    shards,
		Transport: h.tcp,
		HostID:    host,
		ShardOf:   func(n transport.NodeID) int { return cluster.ShardIndex(n, shards) },
	})
	a, err := cluster.New(cluster.Config{
		Host: host, TCP: h.tcp, Engine: h.eng, Dir: h.dir,
		Spawn: func(node transport.NodeID) {
			h.eng.Register(node, proc)
		},
		GossipInterval: 5 * time.Millisecond,
		Seed:           int64(host),
	})
	if err != nil {
		h.eng.Close()
		h.tcp.Close()
		return nil, err
	}
	h.agent = a
	a.Start()
	return h, nil
}

// migrationLegs assembles the two-host cluster and runs the phases.
func migrationLegs(intraFrames, stormFrames, crossFrames int) ([]E20Row, error) {
	const shards = 2
	fail := func(err error) ([]E20Row, error) { return nil, fmt.Errorf("E20: %w", err) }

	proc := &e20Proc{}
	h1, err := e20Node(1, shards, proc)
	if err != nil {
		return fail(err)
	}
	defer h1.close()
	h2, err := e20Node(2, shards, proc)
	if err != nil {
		return fail(err)
	}
	defer h2.close()

	h2.agent.Join([]cluster.Member{{Host: h1.host, Addr: h1.tcp.HostAddr(h1.host)}})
	if err := e20Wait(10*time.Second, func() bool {
		return h1.dir.Fingerprint() == h2.dir.Fingerprint() && len(h1.dir.AliveHosts()) == 2
	}); err != nil {
		return fail(fmt.Errorf("cluster did not converge: %w", err))
	}

	// Pick a target the ring places on host 1 and a distinct host-1
	// sender, so phase 1 is intra-host and phase 3 (after the move to
	// host 2) is cross-host from the same sender.
	var target, sender transport.NodeID
	for n := transport.NodeID(1); n <= 256 && (target == 0 || sender == 0); n++ {
		if owner, ok := h1.dir.Lookup(n); ok && owner == 1 {
			if target == 0 {
				target = n
			} else {
				sender = n
			}
		}
	}
	if target == 0 || sender == 0 {
		return fail(fmt.Errorf("ring placed fewer than two of 256 nodes on host 1"))
	}
	h1.agent.SpawnLocal(target)

	delivered := func() uint64 { return proc.n.Load() }
	pump := func(phase string, lo, hi int, throttle bool) (E20Row, error) {
		row := E20Row{Phase: phase, Frames: hi - lo}
		start := time.Now()
		for i := lo; i < hi; i++ {
			h1.eng.Send(sender, target, msg.Probe{Tag: id.Tag{Initiator: id.Proc(sender), N: uint64(i)}})
			if throttle && i%64 == 0 {
				time.Sleep(200 * time.Microsecond) // keep the storm alive across the move
			}
		}
		if err := e20Wait(60*time.Second, func() bool { return delivered() >= uint64(hi) }); err != nil {
			return row, fmt.Errorf("%s: %d/%d frames: %w", phase, delivered(), hi, err)
		}
		elapsed := time.Since(start)
		// The count rides the snapshot across the move, so a frame lost
		// or delivered twice shows up here as a mismatch.
		if got := delivered(); got != uint64(hi) {
			return row, fmt.Errorf("%s: %d frames delivered, want %d", phase, got, hi)
		}
		row.WallMs = float64(elapsed.Nanoseconds()) / 1e6
		row.KFramesPerSec = float64(row.Frames) / elapsed.Seconds() / 1e3
		return row, nil
	}

	// Phase 1: intra-host steady state.
	intra, err := pump("intra-host", 0, intraFrames, false)
	if err != nil {
		return fail(err)
	}

	// Phase 2: the same storm with a live migration landing mid-flight.
	// The sender throttles lightly so the storm outlives the move; the
	// migration starts once a fifth of the phase's frames are through.
	stormStart := intraFrames
	stormEnd := stormStart + stormFrames
	storm := make(chan E20Row, 1)
	stormErr := make(chan error, 1)
	go func() {
		row, err := pump("migration", stormStart, stormEnd, true)
		if err != nil {
			stormErr <- err
			return
		}
		storm <- row
	}()
	if err := e20Wait(30*time.Second, func() bool { return delivered() >= uint64(stormStart+stormFrames/5) }); err != nil {
		return fail(fmt.Errorf("storm never reached the migration point: %w", err))
	}
	migStart := time.Now()
	if err := h1.agent.Migrate(target, 2); err != nil {
		return fail(fmt.Errorf("migrate: %w", err))
	}
	if err := e20Wait(30*time.Second, func() bool { return h2.agent.Hosted(target) }); err != nil {
		return fail(fmt.Errorf("target never installed on host 2: %w", err))
	}
	migrateMs := float64(time.Since(migStart).Nanoseconds()) / 1e6
	var mig E20Row
	select {
	case err := <-stormErr:
		return fail(err)
	case mig = <-storm:
	}
	// Route committed everywhere before measuring the cross-host phase,
	// so phase 3 rides the direct route, not the forwarding path.
	if err := e20Wait(30*time.Second, func() bool {
		return h1.dir.RouteVer(target) == 1 && h2.dir.RouteVer(target) == 1
	}); err != nil {
		return fail(fmt.Errorf("route never committed: %w", err))
	}
	mig.MigrateMs = migrateMs
	mig.FramesReplayed = h2.eng.Stats().FramesReplayed
	mig.FramesForwarded = h1.eng.Stats().FramesForwarded
	if out, in := h1.eng.Stats().MigrationsOut, h2.eng.Stats().MigrationsIn; out != 1 || in != 1 {
		return fail(fmt.Errorf("migration counters out=%d in=%d, want 1/1", out, in))
	}

	// Phase 3: the same sender, now cross-host.
	cross, err := pump("cross-host", stormEnd, stormEnd+crossFrames, false)
	if err != nil {
		return fail(err)
	}
	if owner, _ := h1.dir.Lookup(target); owner != 2 {
		return fail(fmt.Errorf("source host still resolves the target to %d after commit", owner))
	}
	return []E20Row{intra, mig, cross}, nil
}

// e20Wait polls cond at 1ms until it holds or the deadline expires.
func e20Wait(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", d)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
