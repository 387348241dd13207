package experiments

// E16 — wire-codec cost per probe frame, gob vs binary. Per-probe
// overhead is what sets the cost-optimal detection frequency (Ling et
// al., On Optimal Deadlock Detection Scheduling), so the codec rows
// are the experiment behind ROADMAP open item 2's "zero-allocation hot
// path": encode/decode ns and allocs per frame, bytes per frame on the
// wire, and the end-to-end TCP loopback frame rate under each codec.
// The binary rows must show 0 allocs/op on the steady-state encode
// and decode paths; TestWallClockSelfChecks asserts it on every test
// run, and the msg package's AllocsPerRun tests pin each codec's
// figures beside the code.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/transport"
)

// E16Row is one codec's measured per-frame cost.
type E16Row struct {
	// Codec names the wire format ("binary" or "gob").
	Codec string
	// EncNsPerOp and EncAllocsPerOp are the steady-state cost of
	// encoding one probe envelope into an established stream
	// (EncodeBuffered + amortized Flush).
	EncNsPerOp     float64
	EncAllocsPerOp float64
	// BytesPerFrame is the on-the-wire size of one probe envelope.
	BytesPerFrame float64
	// DecNsPerOp and DecAllocsPerOp are the cost of decoding one probe
	// frame from an established stream.
	DecNsPerOp     float64
	DecAllocsPerOp float64
	// Frames and WireKFramesPerSec are the end-to-end loopback TCP leg:
	// frames pumped through sender link -> wire -> resequencer ->
	// mailbox -> core.Process under this codec, in thousands of frames
	// per second.
	Frames            int
	WireKFramesPerSec float64
}

// codecProbeEnv is the steady-state frame both codecs are measured on:
// a sequenced probe, the message the detection algorithm sends most.
func codecProbeEnv(seq uint64) msg.Envelope {
	return msg.Envelope{
		From: 1, To: 2, Seq: seq, Epoch: 0x9e3779b97f4a7c15,
		Msg: msg.Probe{Tag: id.Tag{Initiator: 1, N: seq}},
	}
}

// countWriter counts bytes and discards them — a sink that cannot
// trigger buffer growth or syscalls.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// E16WireCodec measures both codecs and renders the comparison table.
func E16WireCodec(wireFrames int) ([]E16Row, *metrics.Table, error) {
	if wireFrames <= 0 {
		wireFrames = 20000
	}
	table := metrics.NewTable(
		"E16 — wire codec cost per probe frame (gob vs binary)",
		"codec", "enc_ns_op", "enc_allocs_op", "bytes_frame", "dec_ns_op", "dec_allocs_op",
		"frames", "wire_kframes_s")
	rows := make([]E16Row, 0, 2)
	for _, f := range []msg.WireFormat{msg.WireGob, msg.WireBinary} {
		row, err := codecLeg(f, wireFrames)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		table.AddRow(row.Codec, row.EncNsPerOp, row.EncAllocsPerOp, row.BytesPerFrame,
			row.DecNsPerOp, row.DecAllocsPerOp, row.Frames, row.WireKFramesPerSec)
	}
	return rows, table, nil
}

// codecLeg measures one codec: encode/decode micro-costs, then the
// end-to-end wire leg.
func codecLeg(f msg.WireFormat, wireFrames int) (E16Row, error) {
	const ops = 20000
	row := E16Row{Codec: f.String(), Frames: wireFrames}

	// Encode: steady-state cost into an established stream. The first
	// frame (stream preamble, gob type descriptors) is excluded — it is
	// paid once per connection, not per probe.
	cw := &countWriter{}
	enc := msg.NewEncoderFormat(cw, f)
	if err := enc.Encode(codecProbeEnv(1)); err != nil {
		return row, err
	}
	warmBytes := cw.n
	// One envelope mutated in place: the transport's sender loop owns
	// its envelopes the same way (queued once, encoded from the batch
	// copy), so boxing the probe into the Msg interface is not a
	// per-frame cost on the real path and is hoisted out of the
	// measured loop here too.
	env := codecProbeEnv(1)
	start := time.Now()
	for i := 2; i <= ops+1; i++ {
		env.Seq = uint64(i)
		if err := enc.EncodeBuffered(env); err != nil {
			return row, err
		}
	}
	if err := enc.Flush(); err != nil {
		return row, err
	}
	row.EncNsPerOp = float64(time.Since(start).Nanoseconds()) / ops
	row.BytesPerFrame = float64(cw.n-warmBytes) / ops
	row.EncAllocsPerOp = testing.AllocsPerRun(1000, func() {
		env.Seq++
		if err := enc.EncodeBuffered(env); err != nil {
			panic(err)
		}
		if err := enc.Flush(); err != nil {
			panic(err)
		}
	})

	// Decode: pre-encode a stream, then drain it through the pooled
	// decoder — the transport's actual read path — recycling each frame
	// the way the dispatch mailbox does after the handler returns. Under
	// the binary codec this loop must run allocation-free: the probe
	// comes out of the pool and goes back in.
	var buf bytes.Buffer
	penc := msg.NewEncoderFormat(&buf, f)
	for i := 1; i <= 2*ops; i++ {
		if err := penc.EncodeBuffered(codecProbeEnv(uint64(i))); err != nil {
			return row, err
		}
	}
	if err := penc.Flush(); err != nil {
		return row, err
	}
	stream := buf.Bytes()
	dec := msg.NewPooledDecoder(bytes.NewReader(stream))
	if _, err := dec.Decode(); err != nil { // stream preamble, excluded
		return row, err
	}
	start = time.Now()
	for i := 0; i < ops-1; i++ {
		env, err := dec.Decode()
		if err != nil {
			return row, err
		}
		msg.Recycle(env.Msg)
	}
	row.DecNsPerOp = float64(time.Since(start).Nanoseconds()) / (ops - 1)
	row.DecAllocsPerOp = testing.AllocsPerRun(ops/2, func() {
		env, err := dec.Decode()
		if err != nil {
			panic(err)
		}
		msg.Recycle(env.Msg)
	})

	// Wire leg: the full loopback pipeline under this codec.
	kfps, err := wireLeg(f, wireFrames)
	if err != nil {
		return row, err
	}
	row.WireKFramesPerSec = kfps
	return row, nil
}

// wireLeg pumps probe frames through a loopback TCP pipeline under one
// codec and returns the achieved rate in kframes/s.
func wireLeg(f msg.WireFormat, frames int) (float64, error) {
	net := transport.NewTCPWithOptions(transport.TCPOptions{
		Codec:    f,
		MaxBatch: 64,
	})
	defer net.Close()
	net.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	proc, err := core.NewProcess(core.Config{
		ID:        2,
		Transport: net,
		Policy:    core.InitiateManually,
	})
	if err != nil {
		return 0, err
	}
	// Probes with no local black edge are discarded as non-meaningful;
	// the discard counter therefore counts deliveries.
	arrived := func() uint64 { return proc.Stats().ProbesDiscarded }

	start := time.Now()
	for i := 0; i < frames; i++ {
		net.Send(1, 2, msg.Probe{Tag: id.Tag{Initiator: 1, N: uint64(i)}})
	}
	deadline := time.Now().Add(60 * time.Second)
	for arrived() != uint64(frames) {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("E16 %v: %d/%d frames after 60s", f, arrived(), frames)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return float64(frames) / time.Since(start).Seconds() / 1e3, nil
}
