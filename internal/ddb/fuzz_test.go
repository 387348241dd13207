package ddb

import (
	"testing"

	"repro/internal/id"
	"repro/internal/msg"
)

// FuzzLockManager drives the FIFO read/write lock table with an
// arbitrary operation stream and checks its structural invariants after
// every step:
//
//   - holder compatibility: several holders only if all hold read;
//   - no transaction is simultaneously holder of and queued for the
//     same resource;
//   - strict FIFO liveness: a non-empty queue's head is incompatible
//     with the current holders (anything compatible would have been
//     granted immediately on an empty queue, or by the release cascade);
//   - no empty entries: a resource with no holders has no queue and no
//     table entry at all;
//   - invalid requests (re-entrant acquire, double queue) fail with an
//     error, never a panic or a corrupted table;
//   - recycling: an entry on the free list has no holder and no waiter;
//   - teardown: releasing everything empties the table.
func FuzzLockManager(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00})                                     // one write acquire
	f.Add([]byte{0x01, 0x00, 0x00, 0x01, 0x01, 0x00, 0x02, 0x00, 0x00}) // contend then release
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x01, 0x02, 0x00}) // shared readers + writer wait
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			nTxns      = 5
			nResources = 4
		)
		lt := newLockTable()
		for i := 0; i+3 <= len(data); i += 3 {
			op := data[i] % 3
			txn := id.Txn(data[i+1] % nTxns)
			r := id.Resource(data[i+2] % nResources)
			switch op {
			case 0, 1:
				mode := msg.LockRead
				if op == 1 {
					mode = msg.LockWrite
				}
				wasHeld := holdsOrQueued(lt, r, txn)
				granted, err := lt.acquire(r, txn, mode)
				if wasHeld && err == nil {
					t.Fatalf("re-entrant acquire of %v by txn %v not rejected", r, txn)
				}
				if !wasHeld && err != nil {
					t.Fatalf("fresh acquire of %v by txn %v rejected: %v", r, txn, err)
				}
				_ = granted
			case 2:
				granted := lt.release(r, txn)
				for _, w := range granted {
					if _, nowHolds := lt.locks[r].holders.get(w.txn); !nowHolds {
						t.Fatalf("release reported grant to txn %v on %v but it holds nothing", w.txn, r)
					}
				}
			}
			checkLockInvariants(t, lt)
		}
		// Teardown: release every possible (resource, txn) pair twice —
		// once to drop holds/queue entries, once to confirm releasing
		// absent locks is harmless — then demand an empty table.
		for round := 0; round < 2; round++ {
			for r := id.Resource(0); r < nResources; r++ {
				for txn := id.Txn(0); txn < nTxns; txn++ {
					lt.release(r, txn)
					checkLockInvariants(t, lt)
				}
			}
		}
		if len(lt.locks) != 0 {
			t.Fatalf("table not empty after releasing everything: %d entries", len(lt.locks))
		}
	})
}

// holdsOrQueued reports whether txn already holds or queues for r.
func holdsOrQueued(lt *lockTable, r id.Resource, txn id.Txn) bool {
	ls, ok := lt.locks[r]
	if !ok {
		return false
	}
	if _, held := ls.holders.get(txn); held {
		return true
	}
	for _, w := range ls.queue {
		if w.txn == txn {
			return true
		}
	}
	return false
}

// checkLockInvariants asserts the structural invariants of every table
// entry, and that every entry waiting on the free list is empty.
func checkLockInvariants(t *testing.T, lt *lockTable) {
	t.Helper()
	for _, ls := range lt.free {
		if len(ls.holders) != 0 || len(ls.queue) != 0 {
			t.Fatalf("recycled entry still carries holders %v, queue %v", ls.holders, ls.queue)
		}
	}
	for r, ls := range lt.locks {
		if len(ls.holders) == 0 && len(ls.queue) == 0 {
			t.Fatalf("resource %v: empty entry retained in table", r)
		}
		if len(ls.holders) == 0 && len(ls.queue) > 0 {
			t.Fatalf("resource %v: waiters %v starved on an unheld lock", r, ls.queue)
		}
		if len(ls.holders) > 1 {
			for _, h := range ls.holders {
				if h.val != msg.LockRead {
					t.Fatalf("resource %v: txn %v holds %v alongside %d other holders", r, h.key, h.val, len(ls.holders)-1)
				}
			}
		}
		for _, w := range ls.queue {
			if _, held := ls.holders.get(w.txn); held {
				t.Fatalf("resource %v: txn %v both holds and queues", r, w.txn)
			}
		}
		if len(ls.queue) > 0 && ls.compatible(ls.queue[0].mode) {
			t.Fatalf("resource %v: queue head %+v is compatible with holders %v but was not granted",
				r, ls.queue[0], ls.holders)
		}
		seen := make(map[id.Txn]bool)
		for _, w := range ls.queue {
			if seen[w.txn] {
				t.Fatalf("resource %v: txn %v queued twice", r, w.txn)
			}
			seen[w.txn] = true
		}
	}
}
