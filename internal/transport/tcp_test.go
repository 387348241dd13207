package transport_test

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/trace"
	"repro/internal/transport"
)

// fastRetry returns options tuned for tests: quick backoff, short
// silent-retry window, errors collected instead of ignored.
func fastRetry(errs *errList) transport.TCPOptions {
	o := transport.TCPOptions{
		DialTimeout: 2 * time.Second,
		RetryBase:   5 * time.Millisecond,
		RetryMax:    50 * time.Millisecond,
	}
	if errs != nil {
		o.OnError = errs.add
	}
	return o
}

// errList collects transport errors concurrently.
type errList struct {
	mu   sync.Mutex
	errs []error
}

func (l *errList) add(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.errs = append(l.errs, err)
}

func (l *errList) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.errs)
}

// bigWFGD builds a frame large enough that a few of them overflow a
// kernel socket buffer pair.
func bigWFGD(n int) msg.WFGD {
	edges := make([]id.Edge, n)
	for i := range edges {
		edges[i] = id.Edge{From: id.Proc(i), To: id.Proc(i + 1)}
	}
	return msg.WFGD{Edges: edges}
}

// TestTCPSendsProgressWhileLinkStalled pins the per-link isolation
// property: one peer that accepts its connection but never reads —
// so the sender's kernel buffer fills and its link goroutine blocks
// mid-write — must not stall Send on that link (it only queues) nor
// delivery on any other link.
func TestTCPSendsProgressWhileLinkStalled(t *testing.T) {
	net_ := transport.NewTCPWithOptions(fastRetry(nil))
	defer net_.Close()

	// The stalled peer: accepts and then never reads, like a remote
	// process wedged with a full receive queue.
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := stall.Accept()
			if err != nil {
				return
			}
			accepted <- c // held open, never read
		}
	}()
	defer func() {
		for {
			select {
			case c := <-accepted:
				c.Close()
			default:
				return
			}
		}
	}()
	net_.SetPeer(7, stall.Addr().String())

	const per = 400
	col := newCollector(per)
	net_.Register(9, col)
	net_.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	net_.Register(2, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))

	// Flood the stalled link with ~16MB so its writer is certainly
	// blocked in the kernel; every Send must return immediately.
	frame := bigWFGD(4000)
	for i := 0; i < 500; i++ {
		net_.Send(1, 7, frame)
	}

	// The healthy link must deliver everything while the other link is
	// wedged.
	for i := 1; i <= per; i++ {
		net_.Send(2, 9, probeSeq(uint64(i)))
	}
	select {
	case <-col.done:
	case <-time.After(15 * time.Second):
		t.Fatalf("healthy link starved behind stalled link: got %d/%d", col.count(), per)
	}
	col.checkFIFO(t)
}

// TestTCPReconnectPreservesFIFO forces every established connection
// to drop mid-stream and checks that the replay/dedup protocol hides
// it: both the classic send/deliver FIFO checker and the receiver-side
// sequence checker must see zero violations, with no frame lost or
// duplicated.
func TestTCPReconnectPreservesFIFO(t *testing.T) {
	var errs errList
	opts := fastRetry(&errs)
	connLog := trace.NewConnLog()
	opts.OnConnEvent = connLog.Add
	net_ := transport.NewTCPWithOptions(opts)
	defer net_.Close()

	checker := trace.NewFIFOChecker(func(s string) { t.Error("fifo violation:", s) })
	seqChecker := trace.NewLinkFIFOChecker(func(s string) { t.Error("seq violation:", s) })
	net_.Observe(checker)
	net_.Observe(seqChecker)

	const half = 150
	col := newCollector(2 * half)
	net_.Register(9, col)
	net_.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))

	for i := 1; i <= half; i++ {
		net_.Send(1, 9, probeSeq(uint64(i)))
	}
	// Wait until the first half has fully arrived, then rip out every
	// connection under the transport.
	waitFor(t, 10*time.Second, func() bool { return col.count() >= half })
	net_.DropConnections()
	for i := half + 1; i <= 2*half; i++ {
		net_.Send(1, 9, probeSeq(uint64(i)))
	}
	select {
	case <-col.done:
	case <-time.After(15 * time.Second):
		t.Fatalf("second half not delivered after reconnect: got %d", col.count())
	}
	col.checkFIFO(t)
	if v := checker.Violations(); v != 0 {
		t.Fatalf("%d FIFO violations across reconnect", v)
	}
	if v := seqChecker.Violations(); v != 0 {
		t.Fatalf("%d sequence violations across reconnect", v)
	}
	if u := checker.Undelivered(); u != 0 {
		t.Fatalf("%d frames lost across reconnect", u)
	}
	st := net_.Stats()
	if st.Reconnects == 0 {
		t.Fatalf("expected at least one reconnect, stats %+v", st)
	}
	if connLog.Count(transport.ConnReconnected) == 0 {
		t.Fatalf("conn log missing reconnect event: %v", connLog.Events())
	}
}

// TestTCPDialRetriesUntilPeerAppears checks peers need not start in
// order: sends to a not-yet-listening address are queued and the link
// keeps re-dialing (re-reading the peer directory) until the listener
// exists.
func TestTCPDialRetriesUntilPeerAppears(t *testing.T) {
	// Reserve an address, then free it so the first dials fail.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := rsv.Addr().String()
	rsv.Close()

	var errs errList
	sender := transport.NewTCPWithOptions(fastRetry(&errs))
	defer sender.Close()
	sender.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	sender.SetPeer(5, addr)

	const per = 20
	for i := 1; i <= per; i++ {
		sender.Send(1, 5, probeSeq(uint64(i)))
	}
	time.Sleep(200 * time.Millisecond) // let several dial attempts fail

	receiver := transport.NewTCPWithOptions(fastRetry(&errs))
	defer receiver.Close()
	col := newCollector(per)
	if err := receiver.ListenHost(5, addr); err != nil {
		t.Skipf("reserved address vanished: %v", err)
	}
	receiver.Register(5, col)
	select {
	case <-col.done:
	case <-time.After(15 * time.Second):
		t.Fatalf("queued sends never arrived once peer appeared: got %d", col.count())
	}
	col.checkFIFO(t)
	if st := sender.Stats(); st.DialRetries == 0 {
		t.Fatalf("expected dial retries, stats %+v", st)
	}
}

// TestTCPReadErrorIsSurfacedNotFatal feeds a listener a garbage byte
// stream: the decode error must reach the error callback, kill only
// that connection, and leave the node (and every other link) able to
// receive.
func TestTCPReadErrorIsSurfacedNotFatal(t *testing.T) {
	var errs errList
	net_ := transport.NewTCPWithOptions(fastRetry(&errs))
	defer net_.Close()

	col := newCollector(1)
	net_.Register(9, col)
	net_.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))

	raw, err := net.Dial("tcp", net_.HostAddr(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("this is not a binary envelope stream")); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	waitFor(t, 10*time.Second, func() bool { return errs.len() > 0 })
	found := false
	errs.mu.Lock()
	for _, e := range errs.errs {
		if strings.Contains(e.Error(), "read for node 9") {
			found = true
		}
	}
	errs.mu.Unlock()
	if !found {
		t.Fatalf("decode failure not surfaced: %v", errs.errs)
	}

	// The node still works after the poisoned connection died.
	net_.Send(1, 9, probeSeq(1))
	select {
	case <-col.done:
	case <-time.After(10 * time.Second):
		t.Fatal("node stopped receiving after a poisoned connection")
	}
	if st := net_.Stats(); st.ReadErrors == 0 {
		t.Fatalf("read error not counted, stats %+v", st)
	}
}

// ringNode is one cmhnode-style participant: its own transport
// instance (as if in its own OS process) plus a protocol engine.
type ringNode struct {
	tcp  *transport.TCP
	proc *core.Process
	seq  *trace.LinkFIFOChecker
}

// recoveryWiring connects transport liveness events to the process's
// crash-recovery API the same way cmhnode does: a ConnPeerUp on a link
// (ack resumed, or the peer's inbox incarnation changed — it
// restarted) clears the per-peer fencing state and re-announces any
// still-outstanding wait edge so the fresh incarnation rebuilds its
// dependent set. The indirection exists because the transport needs
// its options before the process exists.
type recoveryWiring struct {
	mu   sync.Mutex
	proc *core.Process
}

func (r *recoveryWiring) set(p *core.Process) {
	r.mu.Lock()
	r.proc = p
	r.mu.Unlock()
}

func (r *recoveryWiring) onConnEvent(ev transport.ConnEvent) {
	if ev.Kind != transport.ConnPeerUp {
		return
	}
	r.mu.Lock()
	p := r.proc
	r.mu.Unlock()
	if p == nil {
		return
	}
	peer := id.Proc(ev.To)
	p.PeerUp(peer)
	p.Reannounce(peer)
}

func startRingNode(t *testing.T, pid id.Proc, errs *errList, onDeadlock func(id.Tag)) *ringNode {
	t.Helper()
	wiring := &recoveryWiring{}
	opts := fastRetry(errs)
	opts.OnConnEvent = wiring.onConnEvent
	tcp := transport.NewTCPWithOptions(opts)
	seq := trace.NewLinkFIFOChecker(func(s string) { t.Error("seq violation:", s) })
	tcp.Observe(seq)
	proc, err := core.NewProcess(core.Config{
		ID:         pid,
		Transport:  tcp,
		Policy:     core.InitiateManually,
		OnDeadlock: onDeadlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	wiring.set(proc)
	return &ringNode{tcp: tcp, proc: proc, seq: seq}
}

// TestTCPRingSurvivesPeerRestart reproduces the deployment failure the
// old transport answered with panics: a 3-node cmhnode-style ring
// (one transport instance per node, wired by address) in which one
// node is killed mid-run and restarted on a fresh port. The survivors
// must not crash, the restarted node must be re-integrated — the
// sender links detect its fresh inbox incarnation through the ack
// protocol, rebase their streams, and the recovery wiring re-announces
// the surviving wait edges (the acked prefix of the history is pruned,
// so replay alone can no longer rebuild the dependent set) — the
// deadlock must still be detected, and every node's receiver-side FIFO
// checker must stay clean across the reconnects.
func TestTCPRingSurvivesPeerRestart(t *testing.T) {
	var errs errList
	detected := make(chan id.Tag, 1)
	onDeadlock := func(tag id.Tag) {
		select {
		case detected <- tag:
		default:
		}
	}

	n0 := startRingNode(t, 0, &errs, onDeadlock)
	defer n0.tcp.Close()
	n1 := startRingNode(t, 1, &errs, nil)
	n2 := startRingNode(t, 2, &errs, nil)
	defer n2.tcp.Close()

	// Wire the full directory on every instance (requests and probes
	// flow forward, replies and WFGD backward).
	wire := func(tcp *transport.TCP, self transport.NodeID, peers map[transport.NodeID]string) {
		for nid, addr := range peers {
			if nid != self {
				tcp.SetPeer(nid, addr)
			}
		}
	}
	addrs := map[transport.NodeID]string{
		0: n0.tcp.HostAddr(0), 1: n1.tcp.HostAddr(1), 2: n2.tcp.HostAddr(2),
	}
	wire(n0.tcp, 0, addrs)
	wire(n1.tcp, 1, addrs)
	wire(n2.tcp, 2, addrs)

	// Form the cycle 0->1->2->0 and wait until every request arrived.
	if err := n0.proc.Request(1); err != nil {
		t.Fatal(err)
	}
	if err := n1.proc.Request(2); err != nil {
		t.Fatal(err)
	}
	if err := n2.proc.Request(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		return len(n0.proc.PendingIn()) == 1 && len(n1.proc.PendingIn()) == 1 && len(n2.proc.PendingIn()) == 1
	})

	// Kill node 1: its transport, listener, connections and protocol
	// state all vanish, exactly like an OS process dying.
	n1.tcp.Close()
	time.Sleep(100 * time.Millisecond) // let survivors notice the RSTs

	// A probe initiated while the peer is down must be queued, not
	// lost and not panic anything.
	if _, ok := n0.proc.StartProbe(); !ok {
		t.Fatal("initiator not blocked")
	}

	// Restart node 1 on a fresh port with empty state; it re-issues
	// its own request (so it is blocked) before the survivors learn
	// the new address.
	n1b := startRingNode(t, 1, &errs, nil)
	defer n1b.tcp.Close()
	wire(n1b.tcp, 1, addrs)
	if err := n1b.proc.Request(2); err != nil {
		t.Fatal(err)
	}
	n0.tcp.SetPeer(1, n1b.tcp.HostAddr(1))
	n2.tcp.SetPeer(1, n1b.tcp.HostAddr(1))

	// The pending probe now flows through the restarted node; its
	// first ack carries a fresh incarnation, which triggers the rebase
	// and the reannounce that rebuilds pendingIn there. The cycle is
	// still there, so detection must complete. Re-initiate
	// periodically: probes sent before the reannounce landed are
	// rightly discarded as non-meaningful.
	deadline := time.After(20 * time.Second)
	tick := time.NewTicker(300 * time.Millisecond)
	defer tick.Stop()
	var tag id.Tag
wait:
	for {
		select {
		case tag = <-detected:
			break wait
		case <-tick.C:
			n0.proc.StartProbe()
		case <-deadline:
			t.Fatalf("deadlock not re-detected after peer restart (errors: %v)", errs.errs)
		}
	}
	if tag.Initiator != 0 {
		t.Fatalf("detection by wrong initiator: %v", tag)
	}
	for i, n := range []*ringNode{n0, n2, n1b} {
		if v := n.seq.Violations(); v != 0 {
			t.Fatalf("node %d saw %d receiver-side FIFO violations across restart", i, v)
		}
	}
}

// TestTCPStatsSnapshot sanity-checks the counters on a healthy run.
func TestTCPStatsSnapshot(t *testing.T) {
	net_ := transport.NewTCP()
	defer net_.Close()
	col := newCollector(3)
	net_.Register(9, col)
	net_.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	for i := 1; i <= 3; i++ {
		net_.Send(1, 9, probeSeq(uint64(i)))
	}
	<-col.done
	st := net_.Stats()
	if st.Connects != 1 || st.Dials != 1 {
		t.Fatalf("unexpected dial counters: %+v", st)
	}
	if st.Reconnects != 0 || st.Duplicates != 0 || st.Resequenced != 0 {
		t.Fatalf("unexpected failure counters on healthy run: %+v", st)
	}
}

// waitFor polls cond until it holds or the timeout elapses.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
