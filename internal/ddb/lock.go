// Package ddb implements the distributed-database model of §6: sites
// with controllers, transactions implemented by at most one agent
// process per site, a read/write lock manager per controller,
// inter-controller resource acquisition, and the controller-level probe
// computation of §6.6 with the initiation optimization of §6.7.
//
// One extension beyond the paper's letter is documented in DESIGN.md:
// in addition to the acquisition edges of §6.4 (home agent waits for a
// remote agent to acquire), controllers know the transaction-structure
// ("locus") edge from each passive remote agent back to the
// transaction's home agent. Menasce–Muntz transactions are collections
// of processes that proceed together; without the locus edge, a cycle
// through a lock held by a remote agent of a transaction blocked at its
// home site would be invisible to any wait-for analysis. Locus edges
// have the same black-until-release discipline as intra-controller
// edges, so Theorem 2's induction goes through unchanged.
package ddb

import (
	"fmt"
	"sort"

	"repro/internal/id"
	"repro/internal/msg"
)

// waitEntry is one queued lock request.
type waitEntry struct {
	txn  id.Txn
	mode msg.LockMode
}

// lockState is the lock table entry for one resource.
type lockState struct {
	holders assoc[id.Txn, msg.LockMode]
	queue   []waitEntry
}

// lockTable is a controller's local lock manager. Requests are granted
// in strict FIFO order: a request waits if it is incompatible with the
// current holders or if any request is already queued (no overtaking,
// which keeps waits live and the wait-for graph honest).
type lockTable struct {
	locks map[id.Resource]*lockState
	// free holds the entries of resources nobody holds or waits for any
	// more: empty, with their holder and queue capacity kept.
	free []*lockState
}

func newLockTable() *lockTable {
	return &lockTable{locks: make(map[id.Resource]*lockState)}
}

func (t *lockTable) state(r id.Resource) *lockState {
	ls, ok := t.locks[r]
	if !ok {
		ls = take(&t.free)
		t.locks[r] = ls
	}
	return ls
}

// compatible reports whether a new request of the given mode can share
// the resource with the current holders.
func (ls *lockState) compatible(mode msg.LockMode) bool {
	if len(ls.holders) == 0 {
		return true
	}
	if mode != msg.LockRead {
		return false
	}
	for _, h := range ls.holders {
		if h.val != msg.LockRead {
			return false
		}
	}
	return true
}

// acquire requests the resource for txn. It returns true if the lock
// was granted immediately; otherwise the request is queued. Re-entrant
// requests and upgrades are rejected as errors — transaction scripts
// must not request a resource they already hold.
func (t *lockTable) acquire(r id.Resource, txn id.Txn, mode msg.LockMode) (bool, error) {
	ls := t.state(r)
	if _, held := ls.holders.get(txn); held {
		return false, fmt.Errorf("txn %v already holds %v", txn, r)
	}
	for _, w := range ls.queue {
		if w.txn == txn {
			return false, fmt.Errorf("txn %v already queued for %v", txn, r)
		}
	}
	if len(ls.queue) == 0 && ls.compatible(mode) {
		ls.holders.put(txn, mode)
		return true, nil
	}
	ls.queue = append(ls.queue, waitEntry{txn: txn, mode: mode})
	return false, nil
}

// release drops txn's hold (or queued request) on r and returns the
// transactions granted the lock as a consequence, in grant order.
func (t *lockTable) release(r id.Resource, txn id.Txn) []waitEntry {
	ls, ok := t.locks[r]
	if !ok {
		return nil
	}
	if !ls.holders.del(txn) {
		for i, w := range ls.queue {
			if w.txn == txn {
				ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
				break
			}
		}
	}
	k := 0
	for ; k < len(ls.queue) && ls.compatible(ls.queue[k].mode); k++ {
		ls.holders.put(ls.queue[k].txn, ls.queue[k].mode)
	}
	granted := append([]waitEntry(nil), ls.queue[:k]...) // nil when nobody was granted
	// Copy the rest down rather than reslice: queue[k:] gives the capacity
	// away, and a recycled lockState should keep it.
	ls.queue = ls.queue[:copy(ls.queue, ls.queue[k:])]
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		delete(t.locks, r)
		t.free = append(t.free, ls)
	}
	return granted
}

// holders returns r's own holder list, sorted by transaction. The
// probe walk reads it in place: it must not be changed or kept past
// the step.
func (t *lockTable) holders(r id.Resource) assoc[id.Txn, msg.LockMode] {
	if ls, ok := t.locks[r]; ok {
		return ls.holders
	}
	return nil
}

// holdersOf returns a copy of the current holders of r, sorted.
func (t *lockTable) holdersOf(r id.Resource) []id.Txn {
	ls, ok := t.locks[r]
	if !ok {
		return nil
	}
	out := make([]id.Txn, 0, len(ls.holders))
	for _, h := range ls.holders {
		out = append(out, h.key)
	}
	return out
}

// waiters returns every (resource, txn) wait pair, for edge derivation.
func (t *lockTable) waitPairs() []waitPair {
	var out []waitPair
	for r, ls := range t.locks {
		for _, w := range ls.queue {
			out = append(out, waitPair{resource: r, txn: w.txn})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].resource != out[j].resource {
			return out[i].resource < out[j].resource
		}
		return out[i].txn < out[j].txn
	})
	return out
}

type waitPair struct {
	resource id.Resource
	txn      id.Txn
}
