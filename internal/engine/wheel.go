package engine

import (
	"time"

	"repro/internal/transport"
)

// The shard timer wheel. A hosted process that needs a timer per wait
// (ddb's §4.3 detection delay) would otherwise arm one Go runtime timer
// per wait and pay a goroutine when it fires, although nearly every such
// wait ends long before its timer does. Instead each shard keeps a hashed
// wheel that only its loop goroutine touches: arming is a slot append,
// an entry whose wait has ended is left to expire into a no-op, and due
// entries run inside the loop's batch like any other step.
//
// Time is counted in ticks of wheelTick since the Host started. An entry
// armed at time t for delay d is due at tick ceil((t+d)/wheelTick), so it
// never fires before t+d; the loop expires entries after every batch and,
// before parking with entries pending, arms one reusable time.Timer for
// the next tick boundary whose slot holds one — so an entry fires at most
// one tick after its deadline, busy shard or idle.

const (
	wheelTick  = int64(time.Millisecond)
	wheelSlots = 64 // a power of two: tick t lives in slot t & (wheelSlots-1)
	// wheelSlotKeep caps the array a drained slot keeps; a burst's is dropped.
	wheelSlotKeep = 256
)

// TimerLogic is the timer face of a hosted process: StepTimer runs one
// expired entry the process armed through its Wheel, with the two words
// it armed it with. The shard calls it on its loop goroutine inside a
// batch, serialized exactly like Step, so it must not re-enter the
// Runner; a callback it fires that does (through the public API) runs
// inline.
type TimerLogic interface {
	StepTimer(a, b uint64)
}

// WheelProvider is implemented by transports whose shards keep a timer
// wheel (the Host).
type WheelProvider interface {
	Wheel(node transport.NodeID) *Wheel
}

// WheelFor returns the wheel of the shard that owns node, or nil when
// the transport has none. Like RunnerFor it may be called before node
// is registered.
func WheelFor(t transport.Transport, node transport.NodeID) *Wheel {
	if wp, ok := t.(WheelProvider); ok {
		return wp.Wheel(node)
	}
	return nil
}

// Wheel is one hosted process's handle on its shard's timer wheel.
type Wheel struct {
	s    *shard
	node transport.NodeID
	// p is the process, resolved at the first Arm (the handle is made
	// before the process registers). Only the shard loop touches it.
	p *proc
}

// Wheel implements WheelProvider.
func (h *Host) Wheel(node transport.NodeID) *Wheel {
	return &Wheel{s: h.shards[h.ShardOf(node)], node: node}
}

// Arm schedules StepTimer(a, b) on the process d nanoseconds from now.
// It must be called from a step of the process, which is what makes the
// wheel single-writer. Entries cannot be cancelled: the process tells a
// live entry from a stale one by its words. Arming on a closed shard,
// or for a process that does not implement TimerLogic, does nothing.
func (w *Wheel) Arm(d int64, a, b uint64) {
	s := w.s
	if s.closedA.Load() {
		return
	}
	if w.p == nil {
		w.p = s.h.proc(w.node)
	}
	if w.p == nil || w.p.tl == nil {
		return
	}
	s.wheel.add(s.h.now(), d, w.p, a, b)
}

// now is the Host's wheel clock: monotonic nanoseconds since NewHost.
func (h *Host) now() int64 { return int64(time.Since(h.epoch)) }

// timerEntry is one armed timer: plain data, the process to step and the
// two words its StepTimer gets, plus the tick it is due at.
type timerEntry struct {
	p    *proc
	a, b uint64
	due  int64
}

// timerWheel is a hashed timing wheel: an entry due at tick t waits in
// slot t mod wheelSlots, and a slot may hold entries of later rounds.
// Times are nanoseconds on the Host's clock and must not decrease from
// one call to the next.
type timerWheel struct {
	slots [wheelSlots][]timerEntry
	n     int   // entries pending
	next  int64 // first tick not yet expired
	due   []timerEntry
}

// add files an entry that expires d nanoseconds after now.
func (w *timerWheel) add(now, d int64, p *proc, a, b uint64) {
	due := (now + max(d, 1) + wheelTick - 1) / wheelTick
	i := due & (wheelSlots - 1)
	w.slots[i] = append(w.slots[i], timerEntry{p: p, a: a, b: b, due: due})
	w.n++
}

// expire removes and returns every entry due by now, in tick order. The
// returned slice is reused by the next call; entries armed while the
// caller runs the returned ones go into the slots, not into it.
func (w *timerWheel) expire(now int64) []timerEntry {
	cur := now / wheelTick
	if cur < w.next {
		return nil
	}
	due := w.due[:0]
	// Each slot needs one visit however many ticks have passed.
	last := min(cur, w.next+wheelSlots-1)
	for t := w.next; t <= last && len(due) < w.n; t++ {
		i := t & (wheelSlots - 1)
		slot := w.slots[i]
		kept := slot[:0]
		for _, e := range slot {
			if e.due <= cur {
				due = append(due, e)
			} else {
				kept = append(kept, e)
			}
		}
		clear(slot[len(kept):])
		if len(kept) == 0 && cap(kept) > wheelSlotKeep {
			kept = nil
		}
		w.slots[i] = kept
	}
	w.n -= len(due)
	w.next = cur + 1
	w.due = due
	return due
}

// nextTick returns the first tick at or after next whose slot holds an
// entry: the earliest boundary at which anything can fall due. It must
// only be called with entries pending.
func (w *timerWheel) nextTick() int64 {
	t := w.next
	for len(w.slots[t&(wheelSlots-1)]) == 0 {
		t++
	}
	return t
}
