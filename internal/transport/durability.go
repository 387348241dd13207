package transport

import "fmt"

// Durable-recovery support for the TCP transport: attaching a
// write-ahead delivery log to an inbox, capturing the inbox's
// resequencer state for a checkpoint, and priming a fresh inbox with
// that state after a crash so the restored endpoint resumes its
// streams instead of starting blank.
//
// Resuming matters for correctness of the replay path: the restored
// inbox advertises its pre-crash incarnation, so a surviving sender's
// ack comparison sees a reconnect, not a restart — it replays its
// unacknowledged frames under the same epoch and sequence numbers, and
// the primed pairState dedups the ones the WAL already replayed. A
// bumped incarnation would instead trigger the sender's blank-peer
// rebase (renumbering frames from seq 1), defeating exactly the dedup
// the deterministic tail replay depends on (DESIGN.md §11).

// StreamCursor is the resequencing frontier of one inbound stream: the
// sender epoch and the next expected sequence number. Cursors are
// captured at a checkpoint cut and re-derived from the WAL tail on
// restore.
type StreamCursor struct {
	Stream NodeID
	Host   bool
	Epoch  uint64
	Next   uint64
}

// inboxOf resolves the inbox of a locally registered owner: a host
// (ListenHost) or a legacy per-node endpoint (RegisterAddr).
func (t *TCP) inboxOf(owner NodeID) *inbox {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ib := t.hostBoxes[owner]; ib != nil {
		return ib
	}
	return t.inboxes[owner]
}

// SetDeliveryLog attaches (or, with nil, detaches) the write-ahead
// delivery log of owner's inbox. Attach before inbound traffic begins:
// frames delivered while no log is attached are not journaled, and the
// checkpoint cut assumes every stepped frame was logged. A log that
// implements GroupDeliveryLog is driven through that face (one barrier
// per group of frames); any other log — a decorator, say — keeps the
// one-call-per-frame contract. Frames staged under the previous log are
// committed to it and delivered before the swap.
func (t *TCP) SetDeliveryLog(owner NodeID, lg DeliveryLog) error {
	ib := t.inboxOf(owner)
	if ib == nil {
		return fmt.Errorf("tcp: set delivery log: no inbox for %d", owner)
	}
	ib.mu.Lock()
	t.flushLocked(ib)
	ib.lg = lg
	ib.glg, _ = lg.(GroupDeliveryLog)
	ib.mu.Unlock()
	return nil
}

// Incarnation returns the incarnation owner's inbox stamps on its
// acknowledgements.
func (t *TCP) Incarnation(owner NodeID) (uint64, bool) {
	ib := t.inboxOf(owner)
	if ib == nil {
		return 0, false
	}
	return ib.inc, true
}

// InboxState captures the resequencer state of owner's inbox: its
// incarnation and the delivery frontier of every inbound stream. Call
// it at a quiescent cut (the engine's checkpoint does, with deliveries
// gated) — the snapshot is internally consistent but says nothing
// about frames still in flight.
func (t *TCP) InboxState(owner NodeID) (inc uint64, cursors []StreamCursor, ok bool) {
	ib := t.inboxOf(owner)
	if ib == nil {
		return 0, nil, false
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for key, ps := range ib.pairs {
		cursors = append(cursors, StreamCursor{Stream: key.id, Host: key.host, Epoch: ps.epoch, Next: ps.next})
	}
	return ib.inc, cursors, true
}

// PrimeInbox restores a fresh inbox to a pre-crash identity: the
// incarnation it advertises in acks and the per-stream resequencing
// frontiers. Frames a surviving sender replays at or below a primed
// frontier are deduplicated exactly as they would have been by the
// crashed incarnation. Prime before peers (re)connect.
func (t *TCP) PrimeInbox(owner NodeID, inc uint64, cursors []StreamCursor) error {
	ib := t.inboxOf(owner)
	if ib == nil {
		return fmt.Errorf("tcp: prime inbox: no inbox for %d", owner)
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ib.inc = inc
	for _, c := range cursors {
		key := streamKey{id: c.Stream, host: c.Host}
		if ps := ib.pairs[key]; ps != nil && ps.epoch == c.Epoch && ps.next >= c.Next {
			continue // already at or past the primed frontier
		}
		ib.pairs[key] = &pairState{epoch: c.Epoch, next: c.Next, acked: c.Next - 1, held: make(map[uint64]heldFrame)}
	}
	return nil
}
