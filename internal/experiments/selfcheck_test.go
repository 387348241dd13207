package experiments

// The retired wall-clock experiments (E13, E15, E16, E18) printed
// rates, but each table also carried a claim that holds however fast
// the machine is. These tests keep those claims under the experiments'
// IDs, driving the production packages directly; they never assert a
// rate. EXPERIMENTS.md maps every other retired check to its test.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// awaitFrames polls arrived until it reports want, failing after 20 s.
func awaitFrames(t *testing.T, want uint64, arrived func() uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for arrived() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames arrived after 20s", arrived(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestE15HostScaling: a ring co-hosted on the single-writer shards of
// one engine.Host is declared by one probe computation, and every send
// takes the intra-host path.
func TestE15HostScaling(t *testing.T) {
	const n, shards = 64, 4
	host := engine.NewHost(engine.Options{Shards: shards})
	defer host.Close()
	detected := make(chan struct{}, 1)
	procs := make([]*core.Process, n)
	for i := range procs {
		cfg := core.Config{ID: id.Proc(i), Transport: host, Policy: core.InitiateManually}
		if i == 0 {
			cfg.OnDeadlock = func(id.Tag) {
				select {
				case detected <- struct{}{}:
				default:
				}
			}
		}
		p, err := core.NewProcess(cfg)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	for i, p := range procs {
		if err := p.Request(id.Proc((i + 1) % n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := procs[0].StartProbe(); !ok {
		t.Fatal("initiator not blocked")
	}
	select {
	case <-detected:
	case <-time.After(20 * time.Second):
		t.Fatalf("ring(%d) on %d host shards: not declared within 20s", n, shards)
	}
	if st := host.Stats(); st.RemoteSends != 0 {
		t.Fatalf("%d remote sends, want every send intra-host", st.RemoteSends)
	}
}

func TestWallClockSelfChecks(t *testing.T) {
	t.Run("E13", func(t *testing.T) {
		// At load over a batched TCP link, one frame in strayEvery is a
		// stray reply among non-meaningful probes. Every frame lands in
		// exactly one of the two counters, and every stray is rejected
		// once.
		const frames, strayEvery = 2000, 16
		net := transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: 64})
		defer net.Close()
		net.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
		p, err := core.NewProcess(core.Config{ID: 2, Transport: net, Policy: core.InitiateManually})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			if i%strayEvery == 0 {
				net.Send(1, 2, msg.Reply{})
			} else {
				net.Send(1, 2, msg.Probe{Tag: id.Tag{Initiator: 1, N: uint64(i)}})
			}
		}
		awaitFrames(t, frames, func() uint64 {
			st := p.Stats()
			return st.ProbesDiscarded + st.ProtocolErrors
		})
		if got, want := p.Stats().ProtocolErrors, uint64((frames+strayEvery-1)/strayEvery); got != want {
			t.Fatalf("%d stray replies rejected, want %d", got, want)
		}
	})

	t.Run("E16", func(t *testing.T) {
		// The binary codec's steady state allocates nothing per probe
		// frame: encode into an established stream, and pooled decode
		// with each frame recycled as the dispatch mailbox does.
		env := msg.Envelope{From: 1, To: 2, Seq: 1, Msg: msg.Probe{Tag: id.Tag{Initiator: 1, N: 1}}}
		enc := msg.NewEncoder(&bytes.Buffer{})
		if err := enc.Encode(env); err != nil { // version byte, excluded
			t.Fatal(err)
		}
		encAllocs := testing.AllocsPerRun(1000, func() {
			env.Seq++
			if err := enc.EncodeBuffered(env); err != nil {
				t.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
		})

		const frames = 2000
		var stream bytes.Buffer
		senc := msg.NewEncoder(&stream)
		for i := 1; i <= frames+1; i++ {
			env.Seq = uint64(i)
			if err := senc.EncodeBuffered(env); err != nil {
				t.Fatal(err)
			}
		}
		if err := senc.Flush(); err != nil {
			t.Fatal(err)
		}
		dec := msg.NewPooledDecoder(&stream)
		if _, err := dec.Decode(); err != nil { // version byte + size scratch
			t.Fatal(err)
		}
		decAllocs := testing.AllocsPerRun(frames/2, func() {
			e, err := dec.Decode()
			if err != nil {
				t.Fatal(err)
			}
			msg.Recycle(e.Msg)
		})
		if encAllocs != 0 || decAllocs != 0 {
			t.Fatalf("binary codec allocates: encode %.1f/op, decode %.1f/op, want 0/0", encAllocs, decAllocs)
		}
	})

	t.Run("E18", func(t *testing.T) {
		// The assembled pipeline engages every stage: each sender flush
		// is one gathered writev, and every wire frame reaches a shard
		// through the mailbox and the Host's inbound shim.
		const procs, frames = 8, 4000
		tcpA := transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: 64})
		tcpB := transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: 64})
		defer tcpA.Close()
		defer tcpB.Close()
		if err := tcpA.ListenHost(1, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if err := tcpB.ListenHost(2, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
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

		host := engine.NewHost(engine.Options{Shards: 4, Transport: tcpB})
		defer host.Close()
		ps := make([]*core.Process, procs)
		for r := range ps {
			p, err := core.NewProcess(core.Config{ID: id.Proc(100 + r), Transport: host, Policy: core.InitiateManually})
			if err != nil {
				t.Fatal(err)
			}
			ps[r] = p
		}
		for i := 0; i < frames; i++ {
			tcpA.Send(1, transport.NodeID(100+i%procs), msg.Probe{Tag: id.Tag{Initiator: 1, N: uint64(i)}})
		}
		// Probes with no local black edge are discarded as
		// non-meaningful, so the discard counters count deliveries.
		awaitFrames(t, frames, func() uint64 {
			var n uint64
			for _, p := range ps {
				n += p.Stats().ProbesDiscarded
			}
			return n
		})
		if ts := tcpA.Stats(); ts.Flushes == 0 || ts.VectorFlushes != ts.Flushes {
			t.Errorf("%d of %d flushes vectored, want all", ts.VectorFlushes, ts.Flushes)
		}
		if hs := host.Stats(); hs.RemoteRecvs != frames {
			t.Errorf("the Host received %d of %d wire frames", hs.RemoteRecvs, frames)
		}
	})
}
