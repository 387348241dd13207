package experiments

// E13 — ingress throughput under write batching, with hostile frames in
// the stream. One TCP loopback pipeline per batching configuration:
// sender link -> gob wire -> resequencer -> mailbox -> core.Process.
// Every frame therefore crosses the full hardened ingress path, and a
// slice of the traffic is deliberately invalid (stray replies a
// conforming peer could never send) to show the validation layer drops
// and counts them at full load instead of killing the node.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/transport"
)

// E13Row is one batching configuration of the ingress-throughput
// experiment.
type E13Row struct {
	// MaxBatch is the sender-side coalescing cap (1 = flush per frame,
	// the pre-batching behaviour).
	MaxBatch int
	// Frames is the number of envelopes pumped through the pipeline.
	Frames int
	// WallMs is the wall-clock time from first send to last delivery.
	WallMs float64
	// KFramesPerSec is the achieved ingress rate, in thousands of
	// frames per second.
	KFramesPerSec float64
	// Flushes is the number of stream flushes that carried the frames;
	// Coalesce is Frames/Flushes, the achieved batching factor.
	Flushes  int64
	Coalesce float64
	// Rejected counts the hostile frames dropped by the validated
	// ingress (they are part of Frames).
	Rejected uint64
	// MailboxPeak is the deepest the receiver's mailbox got.
	MailboxPeak int64
}

// hostileEvery makes one frame in this many a stray reply.
const hostileEvery = 16

// E13IngressThroughput pumps frames through a loopback TCP pipeline
// once per batching configuration and reports the achieved rate. The
// batch=1 row is the per-frame-flush baseline the batched rows are
// judged against.
func E13IngressThroughput(batches []int) ([]E13Row, *metrics.Table, error) {
	if len(batches) == 0 {
		batches = []int{1, 8, 64}
	}
	const frames = 20000
	table := metrics.NewTable(
		"E13 — ingress throughput vs write batching (TCP loopback, hostile frames dropped)",
		"max_batch", "frames", "wall_ms", "kframes_per_s", "flushes", "coalesce", "rejected", "mbox_peak")
	rows := make([]E13Row, 0, len(batches))
	for _, b := range batches {
		row, err := ingressLeg(b, frames)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		table.AddRow(row.MaxBatch, row.Frames, row.WallMs, row.KFramesPerSec,
			row.Flushes, row.Coalesce, row.Rejected, row.MailboxPeak)
	}
	return rows, table, nil
}

// ingressLeg runs one batching configuration.
func ingressLeg(maxBatch, frames int) (E13Row, error) {
	net := transport.NewTCPWithOptions(transport.TCPOptions{
		MaxBatch:         maxBatch,
		MailboxHighWater: 1024,
	})
	defer net.Close()
	net.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	proc, err := core.NewProcess(core.Config{
		ID:        2,
		Transport: net,
		Policy:    core.InitiateManually,
	})
	if err != nil {
		return E13Row{}, err
	}

	// Every frame lands in exactly one of two counters: a probe with no
	// black edge is discarded as non-meaningful, a stray reply is
	// rejected by the validation layer. Their sum counts deliveries.
	arrived := func() uint64 {
		st := proc.Stats()
		return st.ProbesDiscarded + st.ProtocolErrors
	}

	start := time.Now()
	for i := 0; i < frames; i++ {
		if i%hostileEvery == 0 {
			net.Send(1, 2, msg.Reply{}) // stray: node 2 never requested
		} else {
			net.Send(1, 2, msg.Probe{Tag: id.Tag{Initiator: 1, N: uint64(i)}})
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for arrived() != uint64(frames) {
		if time.Now().After(deadline) {
			return E13Row{}, fmt.Errorf("E13 batch=%d: %d/%d frames after 60s", maxBatch, arrived(), frames)
		}
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)

	st := proc.Stats()
	wantRejected := uint64((frames + hostileEvery - 1) / hostileEvery)
	if st.ProtocolErrors != wantRejected {
		return E13Row{}, fmt.Errorf("E13 batch=%d: %d frames rejected, want %d",
			maxBatch, st.ProtocolErrors, wantRejected)
	}
	ts := net.Stats()
	row := E13Row{
		MaxBatch:      maxBatch,
		Frames:        frames,
		WallMs:        float64(elapsed.Nanoseconds()) / 1e6,
		KFramesPerSec: float64(frames) / elapsed.Seconds() / 1e3,
		Flushes:       ts.Flushes,
		Rejected:      st.ProtocolErrors,
		MailboxPeak:   ts.MailboxPeak,
	}
	if ts.Flushes > 0 {
		row.Coalesce = float64(ts.FramesWritten) / float64(ts.Flushes)
	}
	return row, nil
}
