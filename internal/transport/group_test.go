package transport

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/msg"
)

// The group-commit ordering tests (DESIGN.md §11). Every test drives one
// inbox whose delivery log, handler and acknowledgements all write into
// one event list, so the write-ahead orderings read off as a sequence:
// a<seq> (journal append), commit (the barrier), d<seq> (the frame
// reaching the handler), ack<n> (an acknowledgement covering n).

// eventLog is the shared, ordered record.
type eventLog struct {
	mu  sync.Mutex
	evs []string
}

func (l *eventLog) add(format string, args ...any) {
	l.mu.Lock()
	l.evs = append(l.evs, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.evs...)
}

// groupLog is a recording GroupDeliveryLog. decline makes AppendDelivery
// refuse the frame with that sequence number once; commitGate, when
// non-nil, is signalled on entry to CommitDeliveries, which then blocks
// until the test releases it (or gives up: quit).
type groupLog struct {
	log        *eventLog
	decline    uint64
	commitGate chan chan struct{}
	quit       chan struct{}
}

func (g *groupLog) LogDelivery(_ NodeID, _ bool, _, seq uint64, _, _ NodeID, _ msg.Message) {
	g.log.add("log%d", seq)
}

func (g *groupLog) AppendDelivery(_ NodeID, _ bool, _, seq uint64, _, _ NodeID, _ msg.Message) bool {
	if seq == g.decline {
		g.decline = 0
		return false
	}
	g.log.add("a%d", seq)
	return true
}

func (g *groupLog) CommitDeliveries() {
	g.log.add("commit")
	if g.commitGate != nil {
		release := make(chan struct{})
		select {
		case g.commitGate <- release:
		case <-g.quit:
			return
		}
		select {
		case <-release:
		case <-g.quit:
		}
	}
}

// plainLog implements only the one-method DeliveryLog.
type plainLog struct{ log *eventLog }

func (p plainLog) LogDelivery(_ NodeID, _ bool, _, seq uint64, _, _ NodeID, _ msg.Message) {
	p.log.add("log%d", seq)
}

// deliveryRecorder is a Handler recording each delivery as d<seq>. The
// payload's tag must still be the one that was sent: a staged pooled
// message recycled early would come back zeroed or aliased to a later
// frame.
type deliveryRecorder struct{ log *eventLog }

func (h deliveryRecorder) HandleMessage(_ NodeID, m msg.Message) {
	h.log.add("d%d", msg.Deref(m).(msg.Probe).Tag.N)
}

// groupEnv builds frame seq of the test stream; the probe's tag repeats
// the sequence number so deliveries identify themselves.
func groupEnv(seq uint64) msg.Envelope {
	return msg.Envelope{From: 1, To: 2, SrcHost: 1, Seq: seq, Epoch: 7,
		Msg: &msg.Probe{Tag: id.Tag{Initiator: 1, N: seq}}}
}

func groupPing() msg.Envelope {
	return msg.Envelope{From: 1, To: 2, SrcHost: 1, Epoch: 7, Ctl: msg.CtlPing}
}

// newGroupInbox registers node 2 with h and attaches lg.
func newGroupInbox(t *testing.T, h Handler, lg DeliveryLog) (*TCP, *inbox) {
	t.Helper()
	tr := NewTCP()
	tr.Register(2, h)
	if err := tr.SetDeliveryLog(2, lg); err != nil {
		t.Fatal(err)
	}
	return tr, tr.inboxOf(2)
}

// wantEvents compares the event list with want, exactly: the reader
// journals, commits, hands each frame to its handler and writes the
// ack on one goroutine, so every event lands in the order it happened.
func wantEvents(t *testing.T, l *eventLog, want ...string) {
	t.Helper()
	if got := l.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("event order\n got %v\nwant %v", got, want)
	}
}

func awaitEvents(t *testing.T, l *eventLog, want ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(l.snapshot()) < len(want) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	wantEvents(t, l, want...)
}

// pipeReader runs the transport's real readLoop over one end of a
// net.Pipe. A pipe hands a whole Write to the reader's one Read, so
// "these frames arrived in one socket read" is exact, not a loopback
// timing accident. Acknowledgements the loop writes are decoded on the
// client side and recorded as ack<n>.
type pipeReader struct {
	client net.Conn
	enc    *msg.Encoder
	buf    bytes.Buffer
	done   chan struct{}
}

// ackSyncConn is the reader's end of the pipe: an ack Write returns only
// once the client side has recorded the ack, so ack<n> sits in the event
// list before anything the reader does next.
type ackSyncConn struct {
	net.Conn
	logged, done chan struct{}
}

func (c ackSyncConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if err == nil {
		select {
		case <-c.logged:
		case <-c.done:
		}
	}
	return n, err
}

func startPipeReader(t *testing.T, tr *TCP, ib *inbox, log *eventLog) *pipeReader {
	t.Helper()
	client, server := net.Pipe()
	p := &pipeReader{client: client, done: make(chan struct{})}
	p.enc = msg.NewEncoder(&p.buf)
	logged := make(chan struct{})
	tr.wg.Add(1)
	go tr.readLoop(ackSyncConn{Conn: server, logged: logged, done: p.done}, ib)
	go func() {
		defer close(p.done)
		dec := msg.NewDecoder(client)
		for {
			env, err := dec.Decode()
			if err != nil {
				return
			}
			log.add("ack%d", env.Ack)
			logged <- struct{}{}
		}
	}()
	t.Cleanup(func() {
		client.Close()
		<-p.done
		tr.Close()
	})
	return p
}

// write sends the envelopes (and any trailing raw bytes) as ONE Write.
func (p *pipeReader) write(t *testing.T, raw []byte, envs ...msg.Envelope) {
	t.Helper()
	p.buf.Reset()
	for _, env := range envs {
		if err := p.enc.EncodeBuffered(env); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.enc.Flush(); err != nil {
		t.Fatal(err)
	}
	p.buf.Write(raw)
	if _, err := p.client.Write(p.buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitOneBarrierPerRead is the headline ordering: the frames
// of one read are journaled, ONE commit runs, then they are delivered in
// order, and the acknowledgement goes out last. A solo frame is a group
// of one (the stream's first frame is acked at once, so it also shows
// commit-before-ack for a single frame).
func TestGroupCommitOneBarrierPerRead(t *testing.T) {
	log := &eventLog{}
	tr, ib := newGroupInbox(t, deliveryRecorder{log}, &groupLog{log: log})
	p := startPipeReader(t, tr, ib, log)

	p.write(t, nil, groupEnv(1))
	awaitEvents(t, log, "a1", "commit", "d1", "ack1")

	p.write(t, nil, groupEnv(2), groupEnv(3), groupEnv(4), groupEnv(5), groupPing())
	awaitEvents(t, log, "a1", "commit", "d1", "ack1",
		"a2", "a3", "a4", "a5", "commit", "d2", "d3", "d4", "d5", "ack5")
}

// TestGroupCommitClosesWhenReadDrains: with no ack due, the group still
// closes as soon as the decoder has no complete frame left — here with
// half a length prefix dangling, which the peek must not mistake for a
// frame (nor consume: the stream continues with the rest of it).
func TestGroupCommitClosesWhenReadDrains(t *testing.T) {
	log := &eventLog{}
	tr, ib := newGroupInbox(t, deliveryRecorder{log}, &groupLog{log: log})
	p := startPipeReader(t, tr, ib, log)
	p.write(t, nil, groupEnv(1))
	awaitEvents(t, log, "a1", "commit", "d1", "ack1")

	next, err := msg.AppendEnvelopeFrame(nil, groupEnv(4))
	if err != nil {
		t.Fatal(err)
	}
	p.write(t, next[:2], groupEnv(2), groupEnv(3))
	awaitEvents(t, log, "a1", "commit", "d1", "ack1", "a2", "a3", "commit", "d2", "d3")

	if _, err := p.client.Write(next[2:]); err != nil {
		t.Fatal(err)
	}
	awaitEvents(t, log, "a1", "commit", "d1", "ack1", "a2", "a3", "commit", "d2", "d3",
		"a4", "commit", "d4")
}

// TestGroupCommitPingMidGroup: a ping between data frames of one read
// closes the group in front of it — its ack must cover only committed
// frames — and the frames behind it form the next group.
func TestGroupCommitPingMidGroup(t *testing.T) {
	log := &eventLog{}
	tr, ib := newGroupInbox(t, deliveryRecorder{log}, &groupLog{log: log})
	p := startPipeReader(t, tr, ib, log)
	p.write(t, nil, groupEnv(1))
	awaitEvents(t, log, "a1", "commit", "d1", "ack1")

	p.write(t, nil, groupEnv(2), groupEnv(3), groupPing(), groupEnv(4), groupEnv(5))
	awaitEvents(t, log, "a1", "commit", "d1", "ack1",
		"a2", "a3", "commit", "d2", "d3", "ack3",
		"a4", "a5", "commit", "d4", "d5")
}

// TestGroupCommitOnReaderExit: a reader that dies with frames staged
// commits and delivers them on its way out. The bad frame follows the
// good ones in the same read, so the peek reports "Decode will not
// block" and the group is still open when Decode fails.
func TestGroupCommitOnReaderExit(t *testing.T) {
	log := &eventLog{}
	tr, ib := newGroupInbox(t, deliveryRecorder{log}, &groupLog{log: log})
	p := startPipeReader(t, tr, ib, log)
	p.write(t, nil, groupEnv(1))
	awaitEvents(t, log, "a1", "commit", "d1", "ack1")

	badFrame := []byte{1, 0, 0, 0, 0xff} // length prefix below the fixed header size
	p.write(t, badFrame, groupEnv(2), groupEnv(3))
	awaitEvents(t, log, "a1", "commit", "d1", "ack1", "a2", "a3", "commit", "d2", "d3")
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().ReadErrors == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := tr.Stats().ReadErrors; got != 1 {
		t.Fatalf("ReadErrors = %d, want 1 (the reader must have exited on the bad frame)", got)
	}
}

// TestGroupCommitOverlappingConnections: the stage belongs to the inbox.
// Reader A stages two frames of the stream and is still mid-read when
// reader B — the replacement connection — gets a ping: B's ack covers
// A's frames, so B commits and delivers them first. B's own next frame
// then joins the same stage behind them, a replayed duplicate is acked
// without journaling anything, and A's late flush finds nothing to do.
func TestGroupCommitOverlappingConnections(t *testing.T) {
	log := &eventLog{}
	tr, ib := newGroupInbox(t, deliveryRecorder{log}, &groupLog{log: log})
	defer tr.Close()
	recv := func(env msg.Envelope) { // more=true: each reader is mid-read
		if ack, due := tr.receive(ib, env, true); due {
			log.add("ack%d", ack.Ack)
		}
	}
	recv(groupEnv(1)) // either reader: first frame of the epoch
	recv(groupEnv(2)) // reader A
	recv(groupEnv(3)) // reader A, more still buffered
	recv(groupPing()) // reader B
	recv(groupEnv(4)) // reader B
	recv(groupEnv(2)) // reader B: replay of a delivered frame
	tr.flush(ib)      // reader A drains its buffer
	tr.flush(ib)      // reader B drains its buffer
	awaitEvents(t, log, "a1", "commit", "d1", "ack1",
		"a2", "a3", "commit", "d2", "d3", "ack3",
		"a4", "commit", "d4", "ack4")
	if got := tr.Stats().Duplicates; got != 1 {
		t.Fatalf("Duplicates = %d, want 1", got)
	}
}

// TestGroupCommitFullStage: a gap filling releases more in-order frames
// in one step than a group may hold; the stage commits and delivers at
// the bound and the rest forms a second group, closed by the ack the
// stride then owes.
func TestGroupCommitFullStage(t *testing.T) {
	log := &eventLog{}
	tr, ib := newGroupInbox(t, deliveryRecorder{log}, &groupLog{log: log})
	defer tr.Close()
	const extra = 5
	last := uint64(1 + tcpGroupMax + extra)
	tr.receive(ib, groupEnv(1), true)
	for seq := uint64(3); seq <= last; seq++ {
		tr.receive(ib, groupEnv(seq), true) // parked behind the gap at 2
	}
	ack, due := tr.receive(ib, groupEnv(2), true)
	if !due || ack.Ack != last {
		t.Fatalf("ack = (%d, %v), want (%d, true)", ack.Ack, due, last)
	}
	want := []string{"a1", "commit", "d1"}
	group := func(from, to uint64) {
		for s := from; s <= to; s++ {
			want = append(want, fmt.Sprintf("a%d", s))
		}
		want = append(want, "commit")
		for s := from; s <= to; s++ {
			want = append(want, fmt.Sprintf("d%d", s))
		}
	}
	group(2, 1+tcpGroupMax)
	group(2+tcpGroupMax, last)
	awaitEvents(t, log, want...)
	if cap(ib.stage) > 2*tcpGroupMax {
		t.Fatalf("stage grew to cap %d; the bound is %d frames", cap(ib.stage), tcpGroupMax)
	}
}

// TestGroupCommitDeclinedAppend: when the log cannot take a deferred
// append (the engine's checkpoint cut is closing), what is staged is
// committed and delivered first and the declined frame goes through the
// per-frame call — order preserved, nothing left waiting on the cut.
func TestGroupCommitDeclinedAppend(t *testing.T) {
	log := &eventLog{}
	tr, ib := newGroupInbox(t, deliveryRecorder{log}, &groupLog{log: log, decline: 3})
	defer tr.Close()
	for seq := uint64(1); seq <= 4; seq++ {
		tr.receive(ib, groupEnv(seq), seq < 4)
	}
	awaitEvents(t, log, "a1", "commit", "d1",
		"a2", "commit", "d2", "log3", "d3",
		"a4", "commit", "d4")
}

// TestPlainDeliveryLogPerFrame: a log with only the one-method face — a
// decorator — keeps the old contract: one durable call per frame,
// immediately before that frame's delivery, no staging.
func TestPlainDeliveryLogPerFrame(t *testing.T) {
	log := &eventLog{}
	tr, ib := newGroupInbox(t, deliveryRecorder{log}, plainLog{log})
	p := startPipeReader(t, tr, ib, log)
	p.write(t, nil, groupEnv(1), groupEnv(2), groupEnv(3), groupPing())
	awaitEvents(t, log, "log1", "d1", "ack1", "log2", "d2", "log3", "d3", "ack3")
	if n := len(ib.stage); n != 0 {
		t.Fatalf("plain log staged %d frames", n)
	}
}

// TestGroupCommitBypasses: unsequenced frames and stray acks never touch
// the journal or the stage — but when one is the last frame of a read it
// still closes the group in front of it — and detaching the log flushes
// what the old log had staged before frames start flowing unjournaled.
func TestGroupCommitBypasses(t *testing.T) {
	log := &eventLog{}
	tr, ib := newGroupInbox(t, deliveryRecorder{log}, &groupLog{log: log})
	tr.opts.OnError = func(err error) { log.add("error") }
	defer tr.Close()
	tr.receive(ib, groupEnv(1), true)
	tr.receive(ib, groupEnv(2), true) // staged
	tr.receive(ib, msg.Envelope{From: 1, To: 2, SrcHost: 1, Epoch: 7, Ctl: msg.CtlAck, Ack: 9}, true)
	awaitEvents(t, log, "a1", "commit", "d1", "a2")
	// Seq 0, and the read is drained: the group in front of the
	// unsequenced frame closes, and the frame itself is reported and
	// dropped, never delivered.
	tr.receive(ib, msg.Envelope{From: 5, To: 2, SrcHost: 5, Msg: msg.Probe{}}, false)
	awaitEvents(t, log, "a1", "commit", "d1", "a2", "commit", "d2", "error")

	tr.receive(ib, groupEnv(3), true) // staged
	if err := tr.SetDeliveryLog(2, nil); err != nil {
		t.Fatal(err)
	}
	tr.receive(ib, groupEnv(4), true)
	awaitEvents(t, log, "a1", "commit", "d1", "a2", "commit", "d2", "error", "a3", "commit", "d3", "d4")
}

// TestUnsequencedDataFrameRejected: a data frame with Seq 0 read off a
// real connection is reported through OnError and dropped — neither
// journaled nor delivered — and the sequenced frames around it flow on.
func TestUnsequencedDataFrameRejected(t *testing.T) {
	log := &eventLog{}
	tr, ib := newGroupInbox(t, deliveryRecorder{log}, &groupLog{log: log})
	var errs []error
	var mu sync.Mutex
	tr.opts.OnError = func(err error) { mu.Lock(); errs = append(errs, err); mu.Unlock() }
	p := startPipeReader(t, tr, ib, log)
	unsequenced := msg.Envelope{From: 1, To: 2, SrcHost: 1, Epoch: 7, Msg: &msg.Probe{Tag: id.Tag{Initiator: 1}}}
	p.write(t, nil, groupEnv(1), unsequenced, groupEnv(2), groupPing())
	// A delivered unsequenced frame would land between d1 and d2.
	awaitEvents(t, log, "a1", "commit", "d1", "ack1", "a2", "commit", "d2", "ack2")
	mu.Lock()
	defer mu.Unlock()
	if len(errs) != 1 {
		t.Fatalf("OnError saw %d errors, want 1: %v", len(errs), errs)
	}
}

// blockedCommit runs frames 1..3 plus a ping through a real reader whose
// commit blocks, and returns once the group's commit has been entered:
// everything the caller observes before calling release happened while
// the barrier had NOT returned.
func blockedCommit(t *testing.T, h Handler, log *eventLog) (release func()) {
	t.Helper()
	gate, quit := make(chan chan struct{}), make(chan struct{})
	tr, ib := newGroupInbox(t, h, &groupLog{log: log, commitGate: gate, quit: quit})
	p := startPipeReader(t, tr, ib, log)
	t.Cleanup(func() { close(quit) }) // runs before the reader is torn down: a failed test must not hang it
	p.write(t, nil, groupEnv(1), groupEnv(2), groupEnv(3), groupPing())
	select {
	case rel := <-gate: // frame 1's own group (first frame of the epoch)
		close(rel)
	case <-time.After(5 * time.Second):
		t.Fatal("first commit never ran")
	}
	select {
	case rel := <-gate:
		return func() { close(rel) }
	case <-time.After(5 * time.Second):
		t.Fatal("group commit never ran")
	}
	return nil
}

// TestSyncBeforeDeliver pins the first write-ahead ordering on the
// hand-off path: while the group's commit has not returned, no frame of
// the group reaches the handler. Moving the commit after the hand-off
// fails here.
func TestSyncBeforeDeliver(t *testing.T) {
	log := &eventLog{}
	delivered := make(chan uint64, 8)
	h := HandlerFunc(func(_ NodeID, m msg.Message) { delivered <- msg.Deref(m).(msg.Probe).Tag.N })
	release := blockedCommit(t, h, log)
	if got := <-delivered; got != 1 {
		t.Fatalf("first delivery = %d, want 1", got)
	}
	select {
	case n := <-delivered:
		t.Fatalf("frame %d was delivered before its group's commit returned", n)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	for _, want := range []uint64{2, 3} {
		select {
		case got := <-delivered:
			if got != want {
				t.Fatalf("delivered %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never delivered after the commit returned", want)
		}
	}
}

// TestSyncBeforeAck pins the second ordering: while the group's commit
// has not returned, no acknowledgement covering the group is on the
// wire. Moving the commit after the ack write fails here.
func TestSyncBeforeAck(t *testing.T) {
	log := &eventLog{}
	release := blockedCommit(t, deliveryRecorder{log}, log)
	time.Sleep(100 * time.Millisecond)
	awaitEvents(t, log, "a1", "commit", "d1", "ack1", "a2", "a3", "commit")
	release()
	awaitEvents(t, log, "a1", "commit", "d1", "ack1", "a2", "a3", "commit", "d2", "d3", "ack3")
}
