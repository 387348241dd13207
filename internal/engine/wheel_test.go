package engine

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/transport"
)

// TestTimerWheelNeverEarlyAtMostOneTickLate drives the bare wheel on a
// synthetic clock: random delays (some beyond a full turn of the wheel),
// random clock steps (some skipping many turns at once). An entry must
// never come back before its deadline, and once the clock is a full tick
// past the deadline it must have come back.
func TestTimerWheelNeverEarlyAtMostOneTickLate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w timerWheel
	pending := map[uint64]int64{} // entry → deadline
	now, next := int64(0), uint64(0)
	for step := 0; step < 20_000; step++ {
		for k := rng.Intn(3); k > 0; k-- {
			d := rng.Int63n(3 * wheelSlots * wheelTick)
			w.add(now, d, nil, next, 0)
			pending[next] = now + max(d, 1)
			next++
		}
		if rng.Intn(500) == 0 {
			now += rng.Int63n(10 * wheelSlots * wheelTick)
		} else {
			now += rng.Int63n(wheelTick / 2)
		}
		for _, e := range w.expire(now) {
			deadline, ok := pending[e.a]
			if !ok {
				t.Fatalf("entry %d came back twice", e.a)
			}
			if now < deadline {
				t.Fatalf("entry %d came back at %d, %d ns before its deadline", e.a, now, deadline-now)
			}
			delete(pending, e.a)
		}
		for a, deadline := range pending {
			if now >= deadline+wheelTick {
				t.Fatalf("entry %d still pending at %d, a full tick after its deadline %d", a, now, deadline)
			}
		}
		if w.n != len(pending) {
			t.Fatalf("wheel counts %d entries, %d pending", w.n, len(pending))
		}
	}
}

// timerLogic records the wheel entries the shard expires into it.
type timerLogic struct {
	h     *Host
	count atomic.Int64
	fires chan timerFire
}

type timerFire struct {
	a, b uint64
	at   int64 // the wheel clock when StepTimer ran
}

func newTimerLogic(h *Host) *timerLogic {
	return &timerLogic{h: h, fires: make(chan timerFire, 64)}
}

func (l *timerLogic) HandleMessage(transport.NodeID, msg.Message) {}

func (l *timerLogic) StepTimer(a, b uint64) {
	l.count.Add(1)
	select {
	case l.fires <- timerFire{a: a, b: b, at: l.h.now()}:
	default:
	}
}

// wheelLen reads how many entries the shard owning node holds, on its loop.
func wheelLen(h *Host, node transport.NodeID) int {
	var n int
	h.Runner(node).Exec(func() { n = h.shards[h.ShardOf(node)].wheel.n })
	return n
}

// waitWheelEmpty waits until every entry of node's shard has expired.
func waitWheelEmpty(t *testing.T, h *Host, node transport.NodeID) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); wheelLen(h, node) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("wheel entries never expired")
		}
	}
}

// TestTimerFiresOnParkedAndBusyShard arms entries — one beyond a full
// turn of the wheel — on a shard with no traffic at all, then on one kept
// busy by a stream of API calls. Every entry must run, none before its
// deadline and none more than a tick after it, give or take the
// scheduling slack of the box: the OS, not the wheel, decides when a
// woken goroutine runs.
func TestTimerFiresOnParkedAndBusyShard(t *testing.T) {
	const slack = 25 * int64(time.Millisecond)
	delays := []int64{1, wheelTick / 2, 3 * wheelTick, 10*wheelTick + 1, (wheelSlots + 6) * wheelTick}
	for _, busy := range []bool{false, true} {
		name := map[bool]string{false: "parked", true: "busy"}[busy]
		t.Run(name, func(t *testing.T) {
			h := NewHost(Options{Shards: 1})
			defer h.Close()
			l := newTimerLogic(h)
			h.Register(1, l)
			w := h.Wheel(1)
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for busy {
					select {
					case <-stop:
						return
					default:
						h.Runner(1).Exec(func() {})
					}
				}
			}()
			defer func() { close(stop); <-done }()
			h.Runner(1).Exec(func() {
				for i, d := range delays {
					w.Arm(d, uint64(i), uint64(h.now()))
				}
			})
			for range delays {
				select {
				case f := <-l.fires:
					deadline := int64(f.b) + delays[f.a]
					if late := f.at - deadline; late < 0 || late > wheelTick+slack {
						t.Errorf("entry with delay %v ran %v after its deadline", time.Duration(delays[f.a]), time.Duration(late))
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d entries ran", l.count.Load(), len(delays))
				}
			}
		})
	}
}

// TestTimerDropsEntriesOfReplacedOrMigratingProc: an entry whose process
// was registered anew, or is parked for migration, expires into nothing.
func TestTimerDropsEntriesOfReplacedOrMigratingProc(t *testing.T) {
	h := NewHost(Options{Shards: 1})
	defer h.Close()
	old, repl, parked := newTimerLogic(h), newTimerLogic(h), newTimerLogic(h)
	h.Register(1, old)
	h.Register(2, parked)
	for _, node := range []transport.NodeID{1, 2} {
		w := h.Wheel(node)
		h.Runner(node).Exec(func() { w.Arm(wheelTick, 0, 0) })
	}
	h.Register(1, repl)
	if err := h.Park(2); err != nil {
		t.Fatal(err)
	}
	waitWheelEmpty(t, h, 1)
	for name, l := range map[string]*timerLogic{"replaced": old, "replacement": repl, "parked": parked} {
		if n := l.count.Load(); n != 0 {
			t.Errorf("%s process stepped %d timers, want 0", name, n)
		}
	}
}

// TestTimerCloseStopsTickTimer: a shard parked with an entry pending has
// its tick timer armed; Close stops it and leaves nothing to fire.
func TestTimerCloseStopsTickTimer(t *testing.T) {
	h := NewHost(Options{Shards: 1})
	l := newTimerLogic(h)
	h.Register(1, l)
	w := h.Wheel(1)
	h.Runner(1).Exec(func() { w.Arm(int64(time.Hour), 0, 0) })
	s := h.shards[0]
	armed := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.tickAt != 0
	}
	for deadline := time.Now().Add(5 * time.Second); !armed(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("parked shard with an entry pending never armed its tick timer")
		}
	}
	h.Close()
	if s.tick.Stop() || s.tickAt != 0 {
		t.Fatal("Close left the tick timer armed")
	}
	if n := l.count.Load(); n != 0 {
		t.Fatalf("an entry due in an hour ran %d times", n)
	}
}

// keptFill is the most entries a slot can grow to by appending and
// still keep its array once drained: append's growth steps are the
// runtime's, so the capacity a count leads to is measured, not assumed.
func keptFill() int {
	var s []timerEntry
	for cap(append(s, timerEntry{})) <= wheelSlotKeep {
		s = append(s, timerEntry{})
	}
	return len(s)
}

// TestTimerArmSteadyStateAllocs drives the bare wheel on a synthetic
// clock: once every slot has grown within the size a drained slot keeps
// and drained, arming as many entries into a slot is an append into the
// capacity the expired round left behind. Every arm is measured on its
// own, so one growth fails the test instead of being averaged away.
func TestTimerArmSteadyStateAllocs(t *testing.T) {
	fill := keptFill()
	var w timerWheel
	for k := int64(1); k <= wheelSlots; k++ { // delay k ticks: slot k mod wheelSlots
		for i := 0; i < fill; i++ {
			w.add(0, k*wheelTick, nil, 0, 0)
		}
	}
	now := wheelSlots * wheelTick
	if n := len(w.expire(now)); n != wheelSlots*fill || w.n != 0 {
		t.Fatalf("%d entries expired, %d left; want %d and 0", n, w.n, wheelSlots*fill)
	}
	arm := func() { w.add(now, wheelTick, nil, 0, 0) } // all into one slot
	for i := 0; i < fill/2; i++ {                      // AllocsPerRun(1) arms twice, measuring the second
		if allocs := testing.AllocsPerRun(1, arm); allocs != 0 {
			t.Fatalf("arm %d into a drained slot allocated %v times", 2*i+2, allocs)
		}
	}
}

// TestTimerBurstArraysReleased: a slot that grew past what a drained slot
// keeps gives its array back once every entry in it has run, so a burst
// of waits does not pin its high-water memory for the life of the Host.
// A slot within the kept size keeps its array, and so does a burst slot
// still holding an entry of a later round.
func TestTimerBurstArraysReleased(t *testing.T) {
	const burst = 4 * wheelSlotKeep
	fill := keptFill()
	var w timerWheel
	for k := int64(1); k <= wheelSlots; k++ { // delay k ticks: slot k mod wheelSlots
		n := fill
		if k%2 == 0 {
			n = burst
		}
		for i := 0; i < n; i++ {
			w.add(0, k*wheelTick, nil, 0, 0)
		}
	}
	// One entry a full turn later shares slot 2 with a burst.
	w.add(0, (2+wheelSlots)*wheelTick, nil, 0, 0)
	now := wheelSlots * wheelTick
	if n, want := len(w.expire(now)), wheelSlots/2*(burst+fill); n != want {
		t.Fatalf("%d entries expired, want %d", n, want)
	}
	for i, slot := range w.slots {
		switch {
		case i == 2:
			if len(slot) != 1 || cap(slot) < burst {
				t.Fatalf("slot 2 holds %d entries in %d of capacity, want 1 kept in its burst array", len(slot), cap(slot))
			}
		case i%2 == 0 && cap(slot) != 0:
			t.Fatalf("drained burst slot %d still holds an array of %d entries", i, cap(slot))
		case i%2 == 1 && (cap(slot) < fill || cap(slot) > wheelSlotKeep):
			t.Fatalf("drained slot %d holds an array of %d entries, want the one it grew to for %d", i, cap(slot), fill)
		}
	}
}
