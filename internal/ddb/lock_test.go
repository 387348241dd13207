package ddb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/id"
	"repro/internal/msg"
)

func TestLockTableGrantAndQueue(t *testing.T) {
	lt := newLockTable()
	ok, err := lt.acquire(1, 10, msg.LockWrite)
	if err != nil || !ok {
		t.Fatalf("first acquire: %v %v", ok, err)
	}
	ok, err = lt.acquire(1, 11, msg.LockWrite)
	if err != nil || ok {
		t.Fatalf("conflicting acquire granted: %v %v", ok, err)
	}
	granted := lt.release(1, 10)
	if len(granted) != 1 || granted[0].txn != 11 {
		t.Fatalf("release grants = %v", granted)
	}
}

func TestLockTableSharedReads(t *testing.T) {
	lt := newLockTable()
	for _, txn := range []id.Txn{1, 2, 3} {
		ok, err := lt.acquire(7, txn, msg.LockRead)
		if err != nil || !ok {
			t.Fatalf("read %v: %v %v", txn, ok, err)
		}
	}
	// A writer queues behind three readers.
	ok, _ := lt.acquire(7, 4, msg.LockWrite)
	if ok {
		t.Fatal("writer granted alongside readers")
	}
	// A later reader must NOT overtake the queued writer.
	ok, _ = lt.acquire(7, 5, msg.LockRead)
	if ok {
		t.Fatal("reader overtook queued writer")
	}
	lt.release(7, 1)
	lt.release(7, 2)
	granted := lt.release(7, 3)
	// Writer first, reader still behind it.
	if len(granted) != 1 || granted[0].txn != 4 {
		t.Fatalf("grants after readers = %v", granted)
	}
	granted = lt.release(7, 4)
	if len(granted) != 1 || granted[0].txn != 5 {
		t.Fatalf("grants after writer = %v", granted)
	}
}

func TestLockTableRejectsReentrancy(t *testing.T) {
	lt := newLockTable()
	if _, err := lt.acquire(1, 10, msg.LockRead); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.acquire(1, 10, msg.LockWrite); err == nil {
		t.Fatal("upgrade/re-entrant acquire accepted")
	}
	if _, err := lt.acquire(2, 11, msg.LockWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.acquire(2, 12, msg.LockWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.acquire(2, 12, msg.LockWrite); err == nil {
		t.Fatal("duplicate queued acquire accepted")
	}
}

func TestLockTableReleaseOfQueuedEntry(t *testing.T) {
	lt := newLockTable()
	mustAcq := func(r id.Resource, txn id.Txn, m msg.LockMode) bool {
		ok, err := lt.acquire(r, txn, m)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	mustAcq(1, 10, msg.LockWrite)
	mustAcq(1, 11, msg.LockWrite) // queued
	mustAcq(1, 12, msg.LockRead)  // queued behind 11
	// Abort the queued writer: the reader is still incompatible? No —
	// holder 10 is a writer, so 12 stays queued.
	if granted := lt.release(1, 11); len(granted) != 0 {
		t.Fatalf("release of queued entry granted %v", granted)
	}
	granted := lt.release(1, 10)
	if len(granted) != 1 || granted[0].txn != 12 {
		t.Fatalf("grants = %v", granted)
	}
}

// TestLockTableInvariants drives random acquire/release traffic and
// checks the standing invariants: holders are mutually compatible, the
// queue head is always incompatible with the holders (otherwise it
// should have been granted), no transaction is both holder and waiter,
// and every grant event is justified.
func TestLockTableInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lt := newLockTable()
		const (
			resources = 4
			txns      = 8
			steps     = 300
		)
		// held[r][txn] / queued[r][txn] mirror what the caller believes.
		type key struct {
			r   id.Resource
			txn id.Txn
		}
		state := map[key]string{} // "held" | "queued"
		for step := 0; step < steps; step++ {
			r := id.Resource(rng.Intn(resources))
			txn := id.Txn(rng.Intn(txns))
			k := key{r: r, txn: txn}
			switch state[k] {
			case "":
				mode := msg.LockRead
				if rng.Intn(2) == 0 {
					mode = msg.LockWrite
				}
				ok, err := lt.acquire(r, txn, mode)
				if err != nil {
					return false
				}
				if ok {
					state[k] = "held"
				} else {
					state[k] = "queued"
				}
			default:
				granted := lt.release(r, txn)
				delete(state, k)
				for _, g := range granted {
					gk := key{r: r, txn: g.txn}
					if state[gk] != "queued" {
						return false // granted someone who wasn't waiting
					}
					state[gk] = "held"
				}
			}
			// Invariants on this resource.
			ls, exists := lt.locks[r]
			if !exists {
				continue
			}
			write := 0
			for _, h := range ls.holders {
				if h.val == msg.LockWrite {
					write++
				}
			}
			if write > 1 || (write == 1 && len(ls.holders) > 1) {
				return false // incompatible holders
			}
			if len(ls.queue) > 0 && len(ls.holders) == 0 {
				return false // queue with no holders should have drained
			}
			if len(ls.queue) > 0 && ls.compatible(ls.queue[0].mode) {
				return false // head is compatible yet still queued
			}
			for _, w := range ls.queue {
				if _, holds := ls.holders.get(w.txn); holds {
					return false // holder also queued
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWaitPairsSorted(t *testing.T) {
	lt := newLockTable()
	if _, err := lt.acquire(2, 1, msg.LockWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.acquire(2, 3, msg.LockWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.acquire(1, 2, msg.LockWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.acquire(1, 4, msg.LockWrite); err != nil {
		t.Fatal(err)
	}
	pairs := lt.waitPairs()
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].resource > pairs[1].resource {
		t.Fatalf("pairs unsorted: %v", pairs)
	}
}
