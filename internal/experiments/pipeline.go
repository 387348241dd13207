package experiments

// E18 — the end-to-end zero-allocation pipeline: socket -> pooled
// decode -> SPSC ring -> shard -> process step. One host-multiplexed
// TCP link per shard configuration, binary codec, write batching, no
// transport observers — so the sender gathers frames into single
// writev calls, the receiver decodes into pooled structs, and the
// resequencer hands every in-order frame to the engine's lock-free
// stream rings instead of the dispatch mailbox. The rows prove each
// stage engaged (vectored-flush share, ring share) alongside the rate
// the assembled pipeline achieves. The rate is a printed wall-clock
// figure; the stage checks run in TestWallClockSelfChecks.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/transport"
)

// E18Row is one shard configuration of the pipeline experiment.
type E18Row struct {
	// Shards is the receiving Host's shard count; Procs the hosted
	// processes the frames fan out across.
	Shards int
	Procs  int
	// Frames is the number of probe envelopes pumped through the link.
	Frames int
	// WallMs is first send to last delivery; KFramesPerSec the achieved
	// end-to-end rate in thousands of frames per second.
	WallMs        float64
	KFramesPerSec float64
	// Coalesce is frames per flush on the sender; VectorFlushShare the
	// fraction of those flushes that went out as one gathered writev
	// (1.0 = every flush, the binary-codec steady state).
	Coalesce         float64
	VectorFlushShare float64
	// RingShare is the fraction of wire deliveries the shards consumed
	// from the SPSC rings rather than the spill queue; RingSpills the
	// absolute spill count (nonzero only when a shard falls a full ring
	// behind).
	RingShare  float64
	RingSpills uint64
}

// E18Pipeline runs the assembled hot path once per shard configuration.
func E18Pipeline(shardCounts []int) ([]E18Row, *metrics.Table, error) {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 4}
	}
	const frames = 20000
	table := metrics.NewTable(
		"E18 — end-to-end pipeline: writev batches -> pooled decode -> SPSC rings -> shard steps",
		"shards", "procs", "frames", "wall_ms", "kframes_per_s", "coalesce", "vec_share", "ring_share", "spills")
	rows := make([]E18Row, 0, len(shardCounts))
	for _, s := range shardCounts {
		row, err := pipelineLeg(s, frames)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		table.AddRow(row.Shards, row.Procs, row.Frames, row.WallMs, row.KFramesPerSec,
			row.Coalesce, row.VectorFlushShare, row.RingShare, row.RingSpills)
	}
	return rows, table, nil
}

// pipelineLeg pumps frames across one host-multiplexed loopback link
// into a sharded engine Host and checks every stage of the pipeline
// reported work.
func pipelineLeg(shards, frames int) (E18Row, error) {
	const procs = 8
	row := E18Row{Shards: shards, Procs: procs, Frames: frames}
	fail := func(err error) (E18Row, error) { return row, fmt.Errorf("E18 shards=%d: %w", shards, err) }

	tcpA := transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: 64})
	tcpB := transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: 64})
	defer tcpA.Close()
	defer tcpB.Close()
	if err := tcpA.ListenHost(1, "127.0.0.1:0"); err != nil {
		return fail(err)
	}
	if err := tcpB.ListenHost(2, "127.0.0.1:0"); err != nil {
		return fail(err)
	}
	sp := transport.StaticPlacement{
		Hosts: map[transport.NodeID]transport.NodeID{1: 1},
		Addrs: map[transport.NodeID]string{1: tcpA.HostAddr(1), 2: tcpB.HostAddr(2)},
	}
	for r := 0; r < procs; r++ {
		sp.Hosts[transport.NodeID(100+r)] = 2
	}
	tcpA.SetResolver(sp)
	tcpB.SetResolver(sp)
	tcpA.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))

	host := engine.NewHost(engine.Options{Shards: shards, Transport: tcpB})
	defer host.Close()
	ps := make([]*core.Process, procs)
	for r := 0; r < procs; r++ {
		p, err := core.NewProcess(core.Config{
			ID:        id.Proc(100 + r),
			Transport: host,
			Policy:    core.InitiateManually,
		})
		if err != nil {
			return fail(err)
		}
		ps[r] = p
	}
	// Probes with no local black edge are discarded as non-meaningful;
	// the discard counters therefore count deliveries.
	arrived := func() uint64 {
		var n uint64
		for _, p := range ps {
			n += p.Stats().ProbesDiscarded
		}
		return n
	}

	start := time.Now()
	for i := 0; i < frames; i++ {
		tcpA.Send(1, transport.NodeID(100+i%procs), msg.Probe{Tag: id.Tag{Initiator: 1, N: uint64(i)}})
	}
	deadline := time.Now().Add(60 * time.Second)
	for arrived() != uint64(frames) {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("%d/%d frames after 60s", arrived(), frames))
		}
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)

	row.WallMs = float64(elapsed.Nanoseconds()) / 1e6
	row.KFramesPerSec = float64(frames) / elapsed.Seconds() / 1e3
	ts := tcpA.Stats()
	if ts.Flushes > 0 {
		row.Coalesce = float64(ts.FramesWritten) / float64(ts.Flushes)
		row.VectorFlushShare = float64(ts.VectorFlushes) / float64(ts.Flushes)
	}
	hs := host.Stats()
	if total := hs.RingEvents + hs.RingSpills; total > 0 {
		row.RingShare = float64(hs.RingEvents) / float64(total)
	}
	row.RingSpills = hs.RingSpills
	// The experiment's claim is that every stage engaged, not just that
	// frames got through — a silent fallback to the mailbox or the
	// buffered encoder would still deliver, so check the shares.
	if ts.VectorFlushes == 0 {
		return fail(fmt.Errorf("no vectored flushes: the sender fell back to buffered writes"))
	}
	if hs.RingEvents+hs.RingSpills != uint64(frames) {
		return fail(fmt.Errorf("rings carried %d of %d frames: deliveries bypassed the stream sink",
			hs.RingEvents+hs.RingSpills, frames))
	}
	if hs.RingEvents == 0 {
		return fail(fmt.Errorf("every frame spilled: the lock-free path never ran"))
	}
	return row, nil
}
