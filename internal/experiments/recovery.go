package experiments

// E19 — durable recovery cost: how fast a crashed host gets its state
// back. Two legs over the same two-host loopback topology. The blank
// leg recovers the pre-crash state the only way a log-less host can —
// the surviving peer re-derives it over the wire, frame by frame. The
// durable leg loads the newest checkpoint and replays only the
// post-checkpoint WAL tail locally, at memory speed, with no wire
// traffic at all. Both legs report their recovery rate in the
// KFramesPerSec column; the contrast between the two rows is the
// quantitative case for DESIGN.md §11's checkpoint-plus-tail model.
//
// Three more rows price the other side of that trade — what journaling
// costs while the host is up: a windowed one-way probe storm ingested by
// a WAL-attached host under each fsync policy. The rate is what the
// journal leaves of the wire's; records_per_sync and records_per_write
// are how many frames one fsync and one write(2) covered. Under
// fsync=always records_per_sync is the group-commit factor (DESIGN.md
// §11): every frame is on disk before it is delivered or acknowledged,
// and a loaded reader amortises the fsync over everything that arrived
// during the previous one.

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/wal"
)

// E19Row is one recovery leg or one WAL-on ingest leg.
type E19Row struct {
	// Mode is "blank-wire" (re-derive everything from the surviving
	// peer), "durable-restore" (checkpoint load + local tail replay) or
	// "wal-ingest" (live journaling under Fsync).
	Mode string
	// Fsync is the WAL policy of an ingest row ("" on recovery rows,
	// whose ingest side runs fsync=never — they measure replay).
	Fsync string
	Procs int
	// Frames is the number of frames the leg processed: the whole
	// history for the blank leg, only the post-checkpoint tail for the
	// durable leg, the storm for an ingest leg.
	Frames int
	// CheckpointFrames is the prefix the checkpoint made skippable
	// (zero on the blank leg — nothing is skippable without one).
	CheckpointFrames int
	// RecoverMs is crash-to-recovered wall time: from the first step of
	// rebuilding the host to the instant its pre-crash state is back.
	RecoverMs float64
	// IngestMs is an ingest leg's wall time, first send to last delivery.
	IngestMs float64
	// KFramesPerSec is Frames recovered (or ingested) per second, in
	// thousands.
	KFramesPerSec float64
	// RecordsPerSync and RecordsPerWrite are journal records per fsync
	// and per write(2) on an ingest leg (0 when the policy never synced).
	RecordsPerSync, RecordsPerWrite float64
	// SnapshotsRestored and TailReplayed echo the engine's RestoreStats
	// on the durable leg (zero on the blank leg).
	SnapshotsRestored int
	TailReplayed      uint64
}

// E19Recovery measures both recovery paths, then the three ingest legs,
// once each.
func E19Recovery() ([]E19Row, *metrics.Table, error) {
	const (
		shards = 4
		pre    = 20000 // frames delivered before the checkpoint
		tail   = 20000 // frames delivered after it, lost with the crash
		storm  = 40000 // frames per ingest leg
	)
	table := metrics.NewTable(
		"E19 — recovery time: blank wire re-derivation vs checkpoint load + WAL tail replay; WAL-on ingest by fsync policy",
		"mode", "fsync", "procs", "frames", "ckpt_frames", "recover_ms", "ingest_ms", "kframes_per_s",
		"snapshots", "tail_replayed", "records_per_sync", "records_per_write")
	blank, err := blankRecoveryLeg(shards, pre, tail)
	if err != nil {
		return nil, nil, err
	}
	durable, err := durableRecoveryLeg(shards, pre, tail)
	if err != nil {
		return nil, nil, err
	}
	rows := []E19Row{blank, durable}
	for _, policy := range []wal.SyncPolicy{wal.SyncNever, wal.SyncInterval, wal.SyncAlways} {
		row, err := walIngestLeg(shards, storm, policy)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		table.AddRow(row.Mode, row.Fsync, row.Procs, row.Frames, row.CheckpointFrames,
			row.RecoverMs, row.IngestMs, row.KFramesPerSec,
			row.SnapshotsRestored, row.TailReplayed, row.RecordsPerSync, row.RecordsPerWrite)
	}
	return rows, table, nil
}

const e19Procs = 8

// e19Sender builds the surviving peer: a host-multiplexed TCP endpoint
// that pumps probe frames at host 2's processes and counts nothing.
func e19Sender() (*transport.TCP, error) {
	tcpA := transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: 64})
	if err := tcpA.ListenHost(1, "127.0.0.1:0"); err != nil {
		tcpA.Close()
		return nil, err
	}
	tcpA.SetResolver(e19Placement(tcpA.HostAddr(1), ""))
	tcpA.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	return tcpA, nil
}

// e19Placement builds the static two-host topology — node 1 on host 1,
// the hosted processes on host 2 — as a placement resolver. Addresses
// are filled in as listeners come up; a restarted endpoint installs a
// fresh placement carrying its reborn address on both sides.
func e19Placement(addrA, addrB string) transport.StaticPlacement {
	sp := transport.StaticPlacement{
		Hosts: map[transport.NodeID]transport.NodeID{1: 1},
		Addrs: map[transport.NodeID]string{},
	}
	if addrA != "" {
		sp.Addrs[1] = addrA
	}
	if addrB != "" {
		sp.Addrs[2] = addrB
	}
	for r := 0; r < e19Procs; r++ {
		sp.Hosts[transport.NodeID(100+r)] = 2
	}
	return sp
}

// e19Procs100 registers the hosted processes on a fresh engine Host and
// returns the delivery counter (probes with no local black edge are
// discarded, so the discard counters count deliveries).
func e19Procs100(host *engine.Host) (func() uint64, error) {
	ps := make([]*core.Process, e19Procs)
	for r := 0; r < e19Procs; r++ {
		p, err := core.NewProcess(core.Config{
			ID:        id.Proc(100 + r),
			Transport: host,
			Policy:    core.InitiateManually,
		})
		if err != nil {
			return nil, err
		}
		ps[r] = p
	}
	return func() uint64 {
		var n uint64
		for _, p := range ps {
			n += p.Stats().ProbesDiscarded
		}
		return n
	}, nil
}

// e19Pump sends frames[lo,hi) from the sender and waits for the
// receiver's delivery counter to reach want.
func e19Pump(tcpA *transport.TCP, lo, hi int, arrived func() uint64, want uint64) error {
	for i := lo; i < hi; i++ {
		tcpA.Send(1, transport.NodeID(100+i%e19Procs), msg.Probe{Tag: id.Tag{Initiator: 1, N: uint64(i)}})
	}
	deadline := time.Now().Add(60 * time.Second)
	for arrived() != want {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d/%d frames after 60s", arrived(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// e19Window bounds the ingest storm's un-arrived backlog: deep enough
// that the receiver's socket reads always find frames waiting (so
// groups form), shallow enough that the run measures steady ingest
// rather than one giant queue draining.
const e19Window = 4096

// e19PumpWindowed sends n frames keeping at most e19Window of them
// un-arrived, and returns once all have been delivered. The delivery
// counter is a round trip through every shard, so it is consulted only
// when the window looks full, not per frame.
func e19PumpWindowed(tcpA *transport.TCP, n int, arrived func() uint64) error {
	deadline := time.Now().Add(60 * time.Second)
	got := 0
	for sent := 0; sent < n || got < n; {
		if sent < n && sent-got < e19Window {
			tcpA.Send(1, transport.NodeID(100+sent%e19Procs), msg.Probe{Tag: id.Tag{Initiator: 1, N: uint64(sent)}})
			sent++
			continue
		}
		if got = int(arrived()); sent < n && sent-got < e19Window {
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d/%d frames after 60s", got, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// blankRecoveryLeg crashes a log-less host and recovers by having the
// surviving peer re-send the entire history over the wire.
func blankRecoveryLeg(shards, pre, tail int) (E19Row, error) {
	row := E19Row{Mode: "blank-wire", Procs: e19Procs, Frames: pre + tail}
	fail := func(err error) (E19Row, error) { return row, fmt.Errorf("E19 blank: %w", err) }

	tcpA, err := e19Sender()
	if err != nil {
		return fail(err)
	}
	defer tcpA.Close()

	buildB := func(peer *transport.TCP) (*transport.TCP, *engine.Host, func() uint64, error) {
		tb := transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: 64})
		if err := tb.ListenHost(2, "127.0.0.1:0"); err != nil {
			tb.Close()
			return nil, nil, nil, err
		}
		sp := e19Placement(peer.HostAddr(1), tb.HostAddr(2))
		tb.SetResolver(sp)
		hb := engine.NewHost(engine.Options{Shards: shards, Transport: tb})
		arrived, err := e19Procs100(hb)
		if err != nil {
			hb.Close()
			tb.Close()
			return nil, nil, nil, err
		}
		peer.SetResolver(sp)
		return tb, hb, arrived, nil
	}

	tcpB, hostB, arrived, err := buildB(tcpA)
	if err != nil {
		return fail(err)
	}
	if err := e19Pump(tcpA, 0, pre+tail, arrived, uint64(pre+tail)); err != nil {
		hostB.Close()
		tcpB.Close()
		return fail(err)
	}
	// Crash: the host's derived state is gone with the process. The
	// sender endpoint is rebuilt too — a log-less restart hands the
	// blank inbox a fresh incarnation, so the old link's in-flight
	// rebase would resend frames the inbox cannot deduplicate; a fresh
	// outbound stream is the clean re-derivation channel. (The durable
	// leg keeps its sender: PrimeInbox restores the old incarnation.)
	hostB.Close()
	tcpB.Close()
	tcpA.Close()
	tcpA2, err := e19Sender()
	if err != nil {
		return fail(err)
	}
	defer tcpA2.Close()

	start := time.Now()
	tcpB2, hostB2, arrived2, err := buildB(tcpA2)
	if err != nil {
		return fail(err)
	}
	defer hostB2.Close()
	defer tcpB2.Close()
	if err := e19Pump(tcpA2, 0, pre+tail, arrived2, uint64(pre+tail)); err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)
	row.RecoverMs = float64(elapsed.Nanoseconds()) / 1e6
	row.KFramesPerSec = float64(row.Frames) / elapsed.Seconds() / 1e3
	return row, nil
}

// e19Durable is host 2 with a WAL attached: the log, the endpoint, the
// engine Host and the delivery counter of its processes.
type e19Durable struct {
	w       *wal.Log
	tcp     *transport.TCP
	host    *engine.Host
	arrived func() uint64
}

func (d *e19Durable) close() {
	d.host.Close()
	d.tcp.Close()
	d.w.Close()
}

// e19BuildDurable builds (or, over a directory with history, rebuilds)
// host 2 on dir under the given fsync policy — attach the log, register
// the processes, restore, prime, finish-restore — and points tcpA at it.
func e19BuildDurable(dir string, policy wal.SyncPolicy, shards int, tcpA *transport.TCP) (*e19Durable, engine.RestoreStats, error) {
	var st engine.RestoreStats
	w, err := wal.Open(wal.Options{Dir: dir, Sync: policy})
	if err != nil {
		return nil, st, err
	}
	tb := transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: 64})
	d := &e19Durable{w: w, tcp: tb, host: engine.NewHost(engine.Options{Shards: shards, Transport: tb})}
	fail := func(err error) (*e19Durable, engine.RestoreStats, error) {
		d.close()
		return nil, st, err
	}
	if err := tb.ListenHost(2, "127.0.0.1:0"); err != nil {
		return fail(err)
	}
	sp := e19Placement(tcpA.HostAddr(1), tb.HostAddr(2))
	tb.SetResolver(sp)
	d.host.AttachWAL(w, engine.DurabilityHooks{Incarnation: func() uint64 {
		inc, _ := tb.Incarnation(2)
		return inc
	}})
	if d.arrived, err = e19Procs100(d.host); err != nil {
		return fail(err)
	}
	if err := tb.SetDeliveryLog(2, d.host); err != nil {
		return fail(err)
	}
	if st, err = d.host.Restore(); err != nil {
		return fail(err)
	}
	if st.Found {
		if err := tb.PrimeInbox(2, st.Inc, st.Cursors); err != nil {
			return fail(err)
		}
	}
	if err := d.host.FinishRestore(); err != nil {
		return fail(err)
	}
	tcpA.SetResolver(sp)
	return d, st, nil
}

// durableRecoveryLeg crashes a WAL-attached host after a checkpoint and
// a tail of further deliveries, then recovers from disk alone:
// checkpoint load plus local tail replay, no wire traffic.
func durableRecoveryLeg(shards, pre, tail int) (E19Row, error) {
	row := E19Row{Mode: "durable-restore", Procs: e19Procs, Frames: tail, CheckpointFrames: pre}
	fail := func(err error) (E19Row, error) { return row, fmt.Errorf("E19 durable: %w", err) }

	dir, err := os.MkdirTemp("", "cmh-e19-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	tcpA, err := e19Sender()
	if err != nil {
		return fail(err)
	}
	defer tcpA.Close()

	// This leg measures replay, not append durability (the ingest legs
	// do that), so its ingest side runs SyncNever; Close and rotation
	// still sync, and the crash here is a process death, not a power cut.
	b, _, err := e19BuildDurable(dir, wal.SyncNever, shards, tcpA)
	if err != nil {
		return fail(err)
	}
	err = e19Pump(tcpA, 0, pre, b.arrived, uint64(pre))
	if err == nil {
		err = b.host.Checkpoint()
	}
	if err == nil {
		err = e19Pump(tcpA, pre, pre+tail, b.arrived, uint64(pre+tail))
	}
	// Crash without a final checkpoint: the tail exists only in the log.
	b.close()
	if err != nil {
		return fail(err)
	}

	start := time.Now()
	b2, st, err := e19BuildDurable(dir, wal.SyncNever, shards, tcpA)
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)
	defer b2.close()

	if !st.Found {
		return fail(fmt.Errorf("restore found no checkpoint"))
	}
	if st.SnapshotsRestored != e19Procs {
		return fail(fmt.Errorf("restored %d of %d process snapshots", st.SnapshotsRestored, e19Procs))
	}
	if st.TailReplayed != uint64(tail) {
		return fail(fmt.Errorf("replayed %d of %d tail frames", st.TailReplayed, tail))
	}
	row.RecoverMs = float64(elapsed.Nanoseconds()) / 1e6
	row.KFramesPerSec = float64(row.Frames) / elapsed.Seconds() / 1e3
	row.SnapshotsRestored = st.SnapshotsRestored
	row.TailReplayed = st.TailReplayed
	return row, nil
}

// walIngestLeg pumps a windowed storm of frames into a WAL-attached
// host under one fsync policy and reports the ingest rate and how many
// journal records each fsync covered. It fails the experiment, not just
// the number, if a frame went unjournaled, the log reported an error,
// or — under fsync=always with a backlog always waiting — the barrier
// was still paid per record: that is the group commit not grouping.
func walIngestLeg(shards, frames int, policy wal.SyncPolicy) (E19Row, error) {
	row := E19Row{Mode: "wal-ingest", Fsync: policy.String(), Procs: e19Procs, Frames: frames}
	fail := func(err error) (E19Row, error) {
		return row, fmt.Errorf("E19 ingest fsync=%v: %w", policy, err)
	}
	dir, err := os.MkdirTemp("", "cmh-e19-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	tcpA, err := e19Sender()
	if err != nil {
		return fail(err)
	}
	defer tcpA.Close()
	b, _, err := e19BuildDurable(dir, policy, shards, tcpA)
	if err != nil {
		return fail(err)
	}
	defer b.close()

	before := b.w.Stats()
	start := time.Now()
	if err := e19PumpWindowed(tcpA, frames, b.arrived); err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)
	after := b.w.Stats()

	records := after.RecordsAppended - before.RecordsAppended
	syncs := after.Syncs - before.Syncs
	if hs := b.host.Stats(); hs.WALErrors != 0 {
		return fail(fmt.Errorf("%d WAL errors", hs.WALErrors))
	}
	if records != uint64(frames) {
		return fail(fmt.Errorf("journaled %d records for %d delivered frames", records, frames))
	}
	row.RecordsPerWrite = float64(records) / float64(after.Writes-before.Writes)
	if syncs > 0 {
		row.RecordsPerSync = float64(records) / float64(syncs)
	}
	if policy == wal.SyncAlways && row.RecordsPerSync <= 1 {
		return fail(fmt.Errorf("%d fsyncs for %d records: the barrier is per frame, not per group", syncs, records))
	}
	row.IngestMs = float64(elapsed.Nanoseconds()) / 1e6
	row.KFramesPerSec = float64(frames) / elapsed.Seconds() / 1e3
	return row, nil
}
