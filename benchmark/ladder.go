package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ddb"
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/wal"
)

// The cost ladder: each rung is a timed loop over one layer's public
// calls, alone, reported in ns per operation. The rungs are the prices;
// a workload's Stats-derived counts are the quantities; their product is
// what the layers account for, and the rest of the measured CPU per
// commit is printed as unattributed.

type ladder map[string]value

func (l ladder) put(name string, v float64, unit string, n int) { l[name] = value{v, unit, n} }

// ladderNames is the report order.
var ladderNames = []string{
	"msg.encode_ns", "msg.decode_ns", "msg.encode_allocs", "msg.decode_allocs", "msg.bytes_per_frame",
	"transport.oneway_ns_per_frame", "transport.rtt_p50_us",
	"engine.intra_step_ns", "engine.exec_ns", "engine.checkpoint_ms", "engine.restore_ns_per_frame",
	"ddb.local_txn_ns", "ddb.probe_step_ns", "core.probe_step_ns",
	"wal.append_ns.never", "wal.append_ns.interval", "wal.append_ns.always", "wal.scan_ns_per_record",
	"cluster.ring_build_us",
}

// ladderFrame is the frame the codec rungs price: a sequenced lock
// acquisition, the message the transaction workloads send most.
func ladderFrame(seq uint64) msg.Envelope {
	return msg.Envelope{
		From: 1, To: 2, SrcHost: 1, Seq: seq, Epoch: 0x9e3779b97f4a7c15,
		Msg: msg.CtrlAcquire{Txn: id.Txn(seq), Resource: id.Resource(seq % 65536), Mode: msg.LockRead},
	}
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// runLadder measures every rung. scale divides the loop counts (-quick).
func runLadder(outDir string, scale int) (ladder, error) {
	l := ladder{}
	n := func(full int) int {
		if full/scale < 8 {
			return 8
		}
		return full / scale
	}
	dir := filepath.Join(outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), walDirSeq.Add(1)))
	defer os.RemoveAll(dir)
	for _, rung := range []func() error{
		func() error { return ladderCodec(l, n(50_000)) },
		func() error { return ladderOneWay(l, n(100_000)) },
		func() error { return ladderRTT(l, n(2_000)) },
		func() error { return ladderEngine(l, n(200_000), n(20_000)) },
		func() error { return ladderRestore(l, filepath.Join(dir, "restore"), n(20_000), n(60_000)) },
		func() error { return ladderDDB(l, n(5_000), n(2_000)) },
		func() error { return ladderCore(l, n(20_000)) },
		func() error { return ladderWAL(l, dir, n(20_000), n(300)) },
	} {
		if err := rung(); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	ops := n(200)
	hosts := []transport.NodeID{1, 2, 3}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		cluster.BuildRing(hosts)
	}
	l.put("cluster.ring_build_us", float64(time.Since(t0).Nanoseconds())/1e3/float64(ops), "us", ops)
	return l, nil
}

func ladderCodec(l ladder, ops int) error {
	cw := &countWriter{}
	enc := msg.NewEncoder(cw)
	if err := enc.Encode(ladderFrame(1)); err != nil { // stream preamble, paid once per connection
		return err
	}
	warm := cw.n
	env := ladderFrame(1)
	t0 := time.Now()
	for i := 2; i <= ops+1; i++ {
		env.Seq = uint64(i)
		if err := enc.EncodeBuffered(env); err != nil {
			return err
		}
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	l.put("msg.encode_ns", float64(time.Since(t0).Nanoseconds())/float64(ops), "ns", ops)
	l.put("msg.bytes_per_frame", float64(cw.n-warm)/float64(ops), "B", ops)
	l.put("msg.encode_allocs", testing.AllocsPerRun(200, func() {
		env.Seq++
		if enc.EncodeBuffered(env) != nil || enc.Flush() != nil {
			panic("encode failed")
		}
	}), "1/op", 200)

	var buf bytes.Buffer
	penc := msg.NewEncoder(&buf)
	for i := 1; i <= ops+300; i++ {
		if err := penc.EncodeBuffered(ladderFrame(uint64(i))); err != nil {
			return err
		}
	}
	if err := penc.Flush(); err != nil {
		return err
	}
	dec := msg.NewPooledDecoder(bytes.NewReader(buf.Bytes()))
	if _, err := dec.Decode(); err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		env, err := dec.Decode()
		if err != nil {
			return err
		}
		msg.Recycle(env.Msg)
	}
	l.put("msg.decode_ns", float64(time.Since(t0).Nanoseconds())/float64(ops), "ns", ops)
	l.put("msg.decode_allocs", testing.AllocsPerRun(200, func() {
		env, err := dec.Decode()
		if err != nil {
			panic(err)
		}
		msg.Recycle(env.Msg)
	}), "1/op", 200)
	return nil
}

// twoHosts brings up two TCP endpoints with node 1 on host 1 and
// node 2 plus processes 100..107 on host 2.
func twoHosts() (a, b *transport.TCP, err error) {
	a = transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: tcpMaxBatch})
	b = transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: tcpMaxBatch})
	if err = a.ListenHost(1, "127.0.0.1:0"); err == nil {
		err = b.ListenHost(2, "127.0.0.1:0")
	}
	if err != nil {
		a.Close()
		b.Close()
		return nil, nil, err
	}
	sp := stormPlacement(a.HostAddr(1), b.HostAddr(2))
	sp.Hosts[2] = 2
	a.SetResolver(sp)
	b.SetResolver(sp)
	return a, b, nil
}

// ladderOneWay is the E18 pipeline — writev batches, pooled decode,
// rings, a discarding core process per frame — without a WAL.
func ladderOneWay(l ladder, frames int) error {
	a, b, err := twoHosts()
	if err != nil {
		return err
	}
	defer a.Close()
	defer b.Close()
	a.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	host := engine.NewHost(engine.Options{Shards: hostShards, Transport: b})
	defer host.Close()
	h := &stormHost{tcp: b, eng: host}
	for r := 0; r < stormProcs; r++ {
		p, err := core.NewProcess(core.Config{ID: id.Proc(100 + r), Transport: host, Policy: core.InitiateManually})
		if err != nil {
			return err
		}
		h.procs = append(h.procs, p)
	}
	t0 := time.Now()
	err = pump(a, h, 0, frames)
	l.put("transport.oneway_ns_per_frame", float64(time.Since(t0).Nanoseconds())/float64(frames), "ns", frames)
	return err
}

// ladderRTT is one frame ping-pong between two hosts' plain handlers.
func ladderRTT(l ladder, trips int) error {
	a, b, err := twoHosts()
	if err != nil {
		return err
	}
	defer a.Close()
	defer b.Close()
	back := make(chan struct{}, 1)
	a.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) { back <- struct{}{} }))
	b.Register(2, transport.HandlerFunc(func(_ transport.NodeID, m msg.Message) {
		b.Send(2, 1, msg.Deref(m))
	}))
	rtt := make([]int64, 0, trips)
	for i := 0; i < trips+20; i++ {
		t0 := time.Now()
		a.Send(1, 2, msg.Probe{Tag: id.Tag{Initiator: 1, N: uint64(i)}})
		select {
		case <-back:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("rtt: no echo after 10s")
		}
		if i >= 20 { // connection set-up and first-frame acks are not the steady state
			rtt = append(rtt, time.Since(t0).Nanoseconds())
		}
	}
	slices.Sort(rtt)
	l.put("transport.rtt_p50_us", float64(percentile(rtt, 0.5))/1e3, "us", len(rtt))
	return nil
}

// countingLogic is the cheapest engine.Logic: the intra-step rung prices
// the shard queue and dispatch, not a protocol.
type countingLogic struct{ n atomic.Int64 }

func (c *countingLogic) HandleMessage(transport.NodeID, msg.Message) { c.n.Add(1) }
func (c *countingLogic) Step(transport.NodeID, msg.Message)          { c.n.Add(1) }

func ladderEngine(l ladder, sends, execs int) error {
	host := engine.NewHost(engine.Options{Shards: hostShards})
	defer host.Close()
	sinks := []*countingLogic{{}, {}}
	host.Register(1, sinks[0])
	host.Register(2, sinks[1])
	probe := msg.Probe{Tag: id.Tag{Initiator: 1, N: 1}}
	t0 := time.Now()
	for i := 0; i < sends; i++ {
		host.Send(3, transport.NodeID(1+i%2), probe)
	}
	host.Drain()
	l.put("engine.intra_step_ns", float64(time.Since(t0).Nanoseconds())/float64(sends), "ns", sends)
	if got := sinks[0].n.Load() + sinks[1].n.Load(); got != int64(sends) {
		return fmt.Errorf("engine rung: %d of %d intra-host sends stepped", got, sends)
	}
	run := host.Runner(1)
	t0 = time.Now()
	for i := 0; i < execs; i++ {
		run.Exec(func() {})
	}
	l.put("engine.exec_ns", float64(time.Since(t0).Nanoseconds())/float64(execs), "ns", execs)
	return nil
}

// ladderRestore is a small storm-restore with the WAL on fsync=never:
// the checkpoint, the restore and a raw scan of the same log, each timed
// on its own.
func ladderRestore(l ladder, dir string, pre, tail int) error {
	sender, err := stormSender()
	if err != nil {
		return err
	}
	defer sender.Close()
	h, err := stormReceiver(sender, dir, wal.SyncNever)
	if err != nil {
		return err
	}
	if err := pump(sender, h, 0, pre); err != nil {
		h.close()
		return err
	}
	t0 := time.Now()
	if err := h.eng.Checkpoint(); err != nil {
		h.close()
		return err
	}
	l.put("engine.checkpoint_ms", float64(time.Since(t0).Nanoseconds())/1e6, "ms", 1)
	if err := pump(sender, h, pre, pre+tail); err != nil {
		h.close()
		return err
	}
	if err := h.close(); err != nil {
		return err
	}
	t0 = time.Now()
	h2, err := stormReceiver(sender, dir, wal.SyncNever)
	if err != nil {
		return err
	}
	l.put("engine.restore_ns_per_frame", float64(time.Since(t0).Nanoseconds())/float64(tail), "ns", tail)
	replayed := h2.stats.TailReplayed
	records := 0
	t0 = time.Now()
	err = h2.wal.Scan(func(uint64, byte, uint64, []byte) error { records++; return nil })
	l.put("wal.scan_ns_per_record", float64(time.Since(t0).Nanoseconds())/float64(records), "ns", records)
	h2.close()
	if err != nil {
		return err
	}
	if replayed != uint64(tail) {
		return fmt.Errorf("restore rung: replayed %d of %d tail frames", replayed, tail)
	}
	return nil
}

// heldTimers parks every callback until release, so the probe rung can
// have two transactions each take a first lock before either asks for
// its second — with live timers the first would simply finish.
type heldTimers struct {
	mu  sync.Mutex
	fns []func()
}

func (h *heldTimers) After(_ int64, fn func()) {
	h.mu.Lock()
	h.fns = append(h.fns, fn)
	h.mu.Unlock()
}

func (h *heldTimers) release() {
	h.mu.Lock()
	fns := h.fns
	h.fns = nil
	h.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

func ladderDDB(l ladder, txns, checks int) error {
	// A one-site transaction: three locks all homed at the submitting
	// site, submit → commit callback, one at a time.
	committed := make(chan id.Txn, 1)
	st, err := assemble(stackConfig{}, hooks{onCommit: func(t id.Txn) { committed <- t }})
	if err != nil {
		return err
	}
	steps := func(i int) []ddb.LockStep {
		k := id.Resource(numSites * (3 * i % 1000))
		return []ddb.LockStep{{Resource: k, Mode: msg.LockRead}, {Resource: k + numSites, Mode: msg.LockWrite}, {Resource: k + 2*numSites, Mode: msg.LockRead}}
	}
	t0 := time.Now()
	for i := 0; i < txns; i++ {
		if err := st.ctrls[0].Submit(id.Txn(i+1), 0, steps(i)); err != nil {
			st.close()
			return err
		}
		<-committed
	}
	l.put("ddb.local_txn_ns", float64(time.Since(t0).Nanoseconds())/float64(txns), "ns", txns)
	st.close()

	// A standing two-site deadlock with initiation left to CheckAgent:
	// every check is one probe computation walking the cycle to a
	// declaration, so elapsed ÷ probes sent is the cost of one probe hop
	// (send, shard step, labelling) on one host.
	declared := make(chan struct{}, 1)
	host := engine.NewHost(engine.Options{Shards: hostShards})
	defer host.Close()
	timers := &heldTimers{}
	var ctrls []*ddb.Controller
	for site := 0; site < 2; site++ {
		c, err := ddb.NewController(ddb.Config{
			Site: id.Site(site), Transport: host, Timers: timers, Mode: ddb.InitiateManual,
			ResourceHome: func(r id.Resource) id.Site { return id.Site(int(r) % 2) },
			OnDeadlock:   func(id.Agent, id.CtrlTag) { declared <- struct{}{} },
		})
		if err != nil {
			return err
		}
		ctrls = append(ctrls, c)
	}
	// T1 (home S0) holds r0 and wants r1; T2 (home S1) holds r1 and wants r0.
	if err := ctrls[0].Submit(1, 0, []ddb.LockStep{{Resource: 0, Mode: msg.LockWrite}, {Resource: 1, Mode: msg.LockWrite}}); err != nil {
		return err
	}
	if err := ctrls[1].Submit(2, 0, []ddb.LockStep{{Resource: 1, Mode: msg.LockWrite}, {Resource: 0, Mode: msg.LockWrite}}); err != nil {
		return err
	}
	// Both hold their first lock and their second steps are parked in the
	// timers; releasing them now sends each to the other's site.
	timers.release()
	host.Drain()
	if !(ctrls[0].AgentBlocked(1) && ctrls[1].AgentBlocked(2)) {
		return fmt.Errorf("probe rung: the two-site deadlock did not form")
	}
	before := ctrls[0].Stats().ProbesSent + ctrls[1].Stats().ProbesSent
	t0 = time.Now()
	for i := 0; i < checks; i++ {
		if _, local := ctrls[0].CheckAgent(1); local {
			return fmt.Errorf("probe rung: a cross-site cycle was declared locally")
		}
		select {
		case <-declared:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("probe rung: computation %d never declared", i)
		}
	}
	elapsed := time.Since(t0)
	probes := ctrls[0].Stats().ProbesSent + ctrls[1].Stats().ProbesSent - before
	l.put("ddb.probe_step_ns", float64(elapsed.Nanoseconds())/float64(probes), "ns", int(probes))
	return nil
}

func ladderCore(l ladder, rounds int) error {
	// The basic model's probe hop: a three-process black cycle on one
	// host, process 1 initiating computation after computation.
	host := engine.NewHost(engine.Options{Shards: hostShards})
	defer host.Close()
	procs := make([]*core.Process, 3)
	for i := range procs {
		p, err := core.NewProcess(core.Config{ID: id.Proc(i + 1), Transport: host, Policy: core.InitiateManually})
		if err != nil {
			return err
		}
		procs[i] = p
	}
	for i, p := range procs {
		if err := p.Request(id.Proc((i+1)%3 + 1)); err != nil {
			return err
		}
	}
	host.Drain()
	sent := func() (n uint64) {
		for _, p := range procs {
			n += p.Stats().ProbesSent
		}
		return n
	}
	before := sent()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if _, ok := procs[0].StartProbe(); !ok {
			return fmt.Errorf("core rung: process 1 is not blocked")
		}
	}
	host.Drain()
	elapsed := time.Since(t0)
	probes := sent() - before
	l.put("core.probe_step_ns", float64(elapsed.Nanoseconds())/float64(probes), "ns", int(probes))
	return nil
}

func ladderWAL(l ladder, dir string, appends, synced int) error {
	payload, err := msg.AppendEnvelopeFrame(nil, ladderFrame(1))
	if err != nil {
		return err
	}
	for _, pol := range []wal.SyncPolicy{wal.SyncNever, wal.SyncInterval, wal.SyncAlways} {
		ops := appends
		if pol == wal.SyncAlways {
			ops = synced
		}
		w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, pol.String()), Sync: pol})
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if _, err := w.Append(wal.KindEnvelope, 1, payload); err != nil {
				w.Close()
				return err
			}
		}
		l.put("wal.append_ns."+pol.String(), float64(time.Since(t0).Nanoseconds())/float64(ops), "ns", ops)
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// attribute prices one workload's per-commit counts with the ladder and
// sets the result beside the measured CPU per commit. The terms do not
// overlap: codec and the rest of the wire path per remote frame, a bare
// shard step per delivered message, one Exec per detection/backoff
// timer, one WAL append per journaled record, one probe hop per probe,
// and one local transaction for the submit, lock-table and commit work.
func attribute(res *result, l ladder, fsync wal.SyncPolicy) {
	get := func(name string) float64 { return res.values[name].v }
	rung := func(name string) float64 { return l[name].v }
	frames := get("transport.frames_per_commit")
	codec := rung("msg.encode_ns") + rung("msg.decode_ns")
	wire := rung("transport.oneway_ns_per_frame") - codec - rung("engine.intra_step_ns")
	if wire < 0 {
		wire = 0
	}
	delivered := get("engine.intra_sends_per_commit") + get("engine.remote_sends_per_commit")
	ns := frames*(codec+wire) +
		delivered*rung("engine.intra_step_ns") +
		get("driver.timers_per_commit")*rung("engine.exec_ns") +
		get("wal.records_per_commit")*rung("wal.append_ns."+fsync.String()) +
		get("ddb.probes_per_commit")*rung("ddb.probe_step_ns") +
		rung("ddb.local_txn_ns")
	cpu := get("cpu_us_per_commit")
	res.layer("ladder.attributed_us_per_commit", ns/1e3, "us", 1)
	share := 0.0
	if cpu > 0 {
		share = 1 - ns/1e3/cpu
	}
	res.layer("ladder.unattributed_share", share, "ratio", 1)
}
