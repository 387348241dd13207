package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Durable crash recovery (DESIGN.md §11). A Host with an attached WAL
// journals every sequenced wire delivery (as transport.GroupDeliveryLog:
// the resequencer appends each frame's record, then commits the group
// before any of its frames is delivered or acked),
// checkpoints the marshaled state of every Snapshotter process at a
// consistent cut, and on restart reconstitutes the newest checkpoint
// and replays the log tail deterministically.
//
// The recovery state machine is restore → replay → prime → resume:
//
//	Restore()        load checkpoint, RestoreState each process,
//	                 re-deliver the post-frontier log tail with
//	                 observers bypassed and remote sends muted
//	(caller)         PrimeInbox the transport with the returned
//	                 incarnation and stream cursors
//	FinishRestore()  write the post-restore checkpoint under the new
//	                 generation and release the delivery gate
//	(caller)         reconnect peers; optionally Reannounce
//
// Resuming the pre-crash incarnation is deliberate: a surviving sender
// that sees the same incarnation in acks replays its unacknowledged
// frames under the same epoch and sequence numbers, which the primed
// resequencer deduplicates against the frames the WAL already
// replayed. What bumps instead is the durability generation stamped on
// every record — replay fences tail records from a stale generation.

// ckptVersion is the checkpoint payload layout version.
const ckptVersion = 1

// DurabilityHooks connects the checkpoint to transport identity the
// Host cannot see on its own.
type DurabilityHooks struct {
	// Incarnation returns the incarnation the transport inbox stamps
	// on acknowledgements (transport.TCP.Incarnation). Called while
	// the checkpoint cut is held; it must not block on transport
	// delivery locks — the TCP getter does not. nil records 0.
	Incarnation func() uint64
}

// RestoreStats reports what Restore reconstructed.
type RestoreStats struct {
	// Found is false when no valid checkpoint existed (blank start:
	// the whole log, if any, was replayed).
	Found bool
	// CheckpointSeq and Gen are the loaded checkpoint's sequence and
	// the new durability generation subsequent appends carry.
	CheckpointSeq uint64
	Gen           uint64
	// Inc is the pre-crash inbox incarnation to prime the transport
	// with (0 when no checkpoint was found).
	Inc uint64
	// Cursors are the per-stream resequencing frontiers after replay,
	// derived from the log scan — prime the transport with them so a
	// surviving sender's replayed frames deduplicate.
	Cursors []transport.StreamCursor
	// SnapshotsRestored counts processes whose state was loaded from
	// the checkpoint; TailReplayed counts log records re-delivered;
	// StaleGenDropped counts tail records fenced for a stale
	// generation; DecodeErrors counts undecodable record payloads;
	// UnknownProcs counts replayed frames whose destination is not
	// registered (skipped).
	SnapshotsRestored int
	TailReplayed      uint64
	StaleGenDropped   uint64
	DecodeErrors      uint64
	UnknownProcs      uint64
}

// AttachWAL attaches the write-ahead log and hooks. Attach after
// NewHost and before any traffic or Register-triggered delivery; the
// cut accounting assumes every sequenced frame stepped by the shards
// was journaled first. The caller keeps ownership of w (and closes it
// after Close). Call Restore before serving traffic even when the
// directory is empty — it establishes the durability generation.
func (h *Host) AttachWAL(w *wal.Log, hooks DurabilityHooks) {
	h.walHooks = hooks
	h.walGen.Store(1)
	h.walLog.Store(w)
}

// WAL returns the attached log, if any.
func (h *Host) WAL() *wal.Log { return h.walLog.Load() }

// LogDelivery implements transport.DeliveryLog, the per-frame contract:
// journal one sequenced wire delivery and run the log's durability
// barrier before returning — under wal.SyncAlways the record is on disk
// when the transport hands the frame to the shards and acknowledges it.
// It blocks while a checkpoint cut holds the gate. The transport itself
// drives a Host through the batched face below; this entry point is what
// a decorator around the Host calls, and the transport's fallback when
// AppendDelivery declines. stream is the source host the record is
// stamped with; streamIsHost is always true and is ignored.
func (h *Host) LogDelivery(stream transport.NodeID, streamIsHost bool, epoch, seq uint64, from, to transport.NodeID, m msg.Message) {
	h.journal(true, stream, epoch, seq, from, to, m)
	h.CommitDeliveries()
}

// AppendDelivery implements transport.GroupDeliveryLog: journal one
// frame with no barrier; CommitDeliveries pays it for the whole group.
// It never waits for a checkpoint cut — the cut waits for every
// journaled frame to be stepped, and this frame's predecessors may be
// sitting in the caller's stage — so with the gate closing it journals
// nothing and returns false: the caller delivers its stage and comes
// back through LogDelivery, which does wait.
func (h *Host) AppendDelivery(stream transport.NodeID, streamIsHost bool, epoch, seq uint64, from, to transport.NodeID, m msg.Message) bool {
	return h.journal(false, stream, epoch, seq, from, to, m)
}

// journal appends one delivery record, unsynced, under the checkpoint
// gate held shared: wait blocks for the gate, otherwise a closing gate
// makes journal return false having done nothing. Frames for
// destinations not hosted here are not journaled (and report true):
// they will not be stepped by these shards, and the log is this Host's
// delivery journal, not the wire's.
func (h *Host) journal(wait bool, stream transport.NodeID, epoch, seq uint64, from, to transport.NodeID, m msg.Message) bool {
	w := h.walLog.Load()
	if w == nil || h.proc(to) == nil {
		return true
	}
	if wait {
		h.walGate.RLock()
	} else if !h.walGate.TryRLock() {
		return false
	}
	defer h.walGate.RUnlock()
	env := msg.Envelope{From: int32(from), To: int32(to), SrcHost: int32(stream), Seq: seq, Epoch: epoch, Msg: m}
	h.walMu.Lock()
	buf, err := msg.AppendEnvelopeFrame(h.walScratch[:0], env)
	if err == nil {
		h.walScratch = buf
		_, err = w.AppendDeferred(wal.KindEnvelope, h.walGen.Load(), buf)
	}
	if err == nil {
		h.walOpen++
	}
	h.walMu.Unlock()
	if err != nil {
		// The frame is still delivered — losing one journal record
		// degrades replay to the Reannounce fallback, which is better
		// than dropping live traffic. The count is surfaced in stats.
		h.walErrs.Add(1)
	}
	// Counted at append, and even on error, so the checkpoint cut's
	// logged == stepped equality stays exact: a frame waiting in a
	// transport stage for its group's commit keeps the cut open until it
	// has been delivered and stepped.
	h.walLogged.Add(1)
	return true
}

// CommitDeliveries implements transport.GroupDeliveryLog: the log's
// durability barrier (one fsync under wal.SyncAlways, nothing under the
// other policies) over every record journaled so far. A failed barrier
// leaves none of those records known durable, so each counts as a WAL
// error; they are delivered regardless, as in journal.
func (h *Host) CommitDeliveries() {
	w := h.walLog.Load()
	if w == nil {
		return
	}
	h.walMu.Lock()
	n := h.walOpen
	h.walOpen = 0
	var err error
	if n > 0 {
		err = w.Commit()
	}
	h.walMu.Unlock()
	if err != nil {
		h.walErrs.Add(n)
	}
}

// Checkpoint writes a durable checkpoint of every Snapshotter process
// at a consistent cut: new sequenced deliveries are gated, in-flight
// ones drain until every journaled frame has been stepped, every shard
// is parked at a barrier, and only then is state marshaled. Returns an
// error when no WAL is attached. Must not be called from a shard loop
// (an engine callback); the barrier would deadlock.
func (h *Host) Checkpoint() error {
	if h.walLog.Load() == nil {
		return fmt.Errorf("engine: checkpoint without an attached WAL")
	}
	h.walGate.Lock()
	defer h.walGate.Unlock()
	return h.checkpointGated()
}

// checkpointGated (walGate held exclusively) runs the cut and writes
// the checkpoint.
func (h *Host) checkpointGated() error {
	w := h.walLog.Load()
	// Cut: frames journaled before the gate closed may still be on a
	// transport's stage or in a shard queue — and the cascades they
	// trigger can hop to a shard a single drain pass already visited.
	// Drain until every journaled frame has been stepped AND a full pass
	// executes nothing; the gate guarantees no new wire frames join.
	for {
		before := h.shardEvents()
		h.Drain()
		if h.walLogged.Load() == h.walStepped.Load() && h.shardEvents() == before {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	// Barrier: park every shard so concurrent public API calls
	// serialize before or after the cut, never inside it. With all
	// loops parked, marshaling from this goroutine is single-writer
	// safe (the WaitGroup orders their writes before our reads).
	release := make(chan struct{})
	var entered sync.WaitGroup
	for _, s := range h.shards {
		entered.Add(1)
		if !s.enqueue(event{fn: func() { entered.Done(); <-release }}) {
			entered.Done() // shard already closed: nothing left to park
		}
	}
	entered.Wait()

	snap := h.procsA.Load()
	var nodes []transport.NodeID
	if snap != nil {
		for node, p := range *snap {
			if p.snap != nil {
				nodes = append(nodes, node)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	sw := NewSnapWriter(1024)
	sw.U8(ckptVersion)
	sw.U64(h.walGen.Load())
	sw.U64(w.NextLSN() - 1) // frontier: every record at or below it is in the marshaled state
	var inc uint64
	if h.walHooks.Incarnation != nil {
		inc = h.walHooks.Incarnation()
	}
	sw.U64(inc)
	sw.Len(len(nodes))
	for _, node := range nodes {
		sw.I32(int32(node))
		sw.Blob((*snap)[node].snap.MarshalState())
	}
	close(release)

	if _, err := w.WriteCheckpoint(sw.Bytes()); err != nil {
		return err
	}
	h.ckpts.Add(1)
	return nil
}

// Restore reconstitutes the Host from the newest valid checkpoint and
// the log tail. Call it after registering every process and before any
// traffic. On success the delivery gate is HELD: prime the transport
// with the returned incarnation and cursors, then call FinishRestore
// to anchor the new generation and release the gate. Replay bypasses
// observers and mutes remote sends (see Send); engine callbacks still
// fire, re-deriving local decisions deterministically.
func (h *Host) Restore() (RestoreStats, error) {
	var st RestoreStats
	w := h.walLog.Load()
	if w == nil {
		return st, fmt.Errorf("engine: restore without an attached WAL")
	}
	h.walGate.Lock()
	ok := false
	defer func() {
		if !ok {
			h.walGate.Unlock()
		}
	}()

	payload, seq, err := w.LoadCheckpoint()
	if err != nil {
		return st, err
	}
	var ckptGen, frontier uint64
	if payload != nil {
		sr := NewSnapReader(payload)
		if v := sr.U8(); v != ckptVersion {
			return st, fmt.Errorf("engine: checkpoint version %d (want %d)", v, ckptVersion)
		}
		ckptGen = sr.U64()
		frontier = sr.U64()
		st.Inc = sr.U64()
		n := sr.Len()
		type blob struct {
			node transport.NodeID
			data []byte
		}
		blobs := make([]blob, 0, n)
		for i := 0; i < n; i++ {
			node := transport.NodeID(sr.I32())
			blobs = append(blobs, blob{node: node, data: sr.Blob()})
		}
		if err := sr.Err(); err != nil {
			return st, fmt.Errorf("engine: checkpoint decode: %w", err)
		}
		for _, b := range blobs {
			p := h.proc(b.node)
			if p == nil || p.snap == nil {
				st.UnknownProcs++
				continue
			}
			var rerr error
			data := b.data
			h.Runner(b.node).Exec(func() { rerr = p.snap.RestoreState(data) })
			if rerr != nil {
				return st, fmt.Errorf("engine: restore state of %d: %w", b.node, rerr)
			}
			st.SnapshotsRestored++
		}
		st.Found = true
		st.CheckpointSeq = seq
	}

	// Replay the tail. One pass derives everything: the per-stream
	// cursors (last epoch/seq per stream over the whole log — scan
	// order is delivery order per stream), the maximum generation seen
	// (to mint the new one), and the re-deliveries themselves.
	cursors := make(map[transport.NodeID]transport.StreamCursor)
	maxGen := ckptGen
	h.replaying.Store(true)
	scanErr := w.Scan(func(lsn uint64, kind byte, gen uint64, rec []byte) error {
		if kind != wal.KindEnvelope {
			return nil
		}
		if gen > maxGen {
			maxGen = gen
		}
		env, _, derr := msg.DecodeEnvelopeFrame(rec)
		if derr != nil {
			st.DecodeErrors++
			return nil
		}
		stream := transport.NodeID(env.SrcHost)
		cursors[stream] = transport.StreamCursor{Stream: stream, Epoch: env.Epoch, Next: env.Seq + 1}
		if lsn <= frontier {
			return nil // already reflected in the checkpointed state
		}
		if st.Found && gen != ckptGen {
			// Stale-generation fencing: a tail record from another
			// timeline (e.g. appended by a superseded instance) must
			// not be delivered into the restored state.
			st.StaleGenDropped++
			h.staleGen.Add(1)
			return nil
		}
		p := h.proc(transport.NodeID(env.To))
		if p == nil {
			st.UnknownProcs++
			return nil
		}
		p.sh.enqueue(event{p: p, from: transport.NodeID(env.From), m: env.Msg})
		st.TailReplayed++
		h.replayed.Add(1)
		return nil
	})
	if scanErr == nil {
		// Replay-triggered intra-host cascades can hop between shards,
		// landing on one a single pass already drained; iterate until a
		// full pass executes nothing, so every cascade settles while
		// observers are still bypassed and remote sends still muted.
		for {
			before := h.shardEvents()
			h.Drain()
			if h.shardEvents() == before {
				break
			}
		}
	}
	h.replaying.Store(false)
	if scanErr != nil {
		return st, scanErr
	}

	h.walGen.Store(maxGen + 1)
	st.Gen = maxGen + 1
	st.Cursors = make([]transport.StreamCursor, 0, len(cursors))
	for _, c := range cursors {
		st.Cursors = append(st.Cursors, c)
	}
	sort.Slice(st.Cursors, func(i, j int) bool { return st.Cursors[i].Stream < st.Cursors[j].Stream })
	ok = true // keep the gate held until FinishRestore
	return st, nil
}

// FinishRestore writes the post-restore checkpoint — anchoring the new
// generation so a later restore never fences this incarnation's
// records — and releases the delivery gate. Call it after priming the
// transport (the checkpoint records the primed incarnation via the
// hooks) and before reconnecting peers.
func (h *Host) FinishRestore() error {
	if h.walLog.Load() == nil {
		return fmt.Errorf("engine: finish-restore without an attached WAL")
	}
	defer h.walGate.Unlock()
	return h.checkpointGated()
}

// Reannounce asks every hosted process implementing ReannouncingLogic
// to re-announce surviving state to peer (core re-sends
// Request{Rejoin}, idempotent at the receiver). The recovery fallback
// for anything the muted replay could not reconstruct — outbound
// frames lost with the crash.
func (h *Host) Reannounce(peer transport.NodeID) {
	for _, p := range h.procsWhere(func(p *proc) bool { return p.ann != nil }) {
		ann := p.ann
		p.sh.enqueue(event{fn: func() { ann.StepReannounce(peer) }})
	}
}
