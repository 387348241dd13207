package engine

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// TestEffectsDispatchInOrder: a step's callbacks run after the step, in
// the order it deferred them, then Settle's after the step's own, and
// the buffer is empty again once the entry returns.
func TestEffectsDispatchInOrder(t *testing.T) {
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	var fx Effects
	fx.Settle = func() {
		got = append(got, "settle")
		fx.Defer(note("settled"))
	}
	fx.Callback = func(op, arg uint64) { got = append(got, fmt.Sprintf("call %d %d", op, arg)) }
	fx.Run(func() {
		fx.Defer(note("a"))
		fx.Call(1, 2)
		fx.Defer(note("b"))
		fx.Defer(note("c"))
		if len(got) != 0 {
			t.Fatalf("callbacks ran inside the step: %v", got)
		}
	})
	if want := []string{"settle", "a", "call 1 2", "b", "c", "settled"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Run dispatched %v, want %v", got, want)
	}
	got = nil
	fx.Exec(NewInlineRunner(), func() { fx.Defer(note("x")) })
	if want := []string{"settle", "x", "settled"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Exec dispatched %v, want %v", got, want)
	}
	if len(fx.fns) != 0 {
		t.Fatalf("%d callbacks left in the buffer", len(fx.fns))
	}
}

// TestEffectsNestedStepRunsFirst: a callback that re-enters its process
// has its own step's callbacks run before the outer step's remaining
// ones, whichever entry the outer step came through — the order each
// step owning its own callback list gave.
func TestEffectsNestedStepRunsFirst(t *testing.T) {
	for _, entry := range []string{"Run", "Exec"} {
		t.Run(entry, func(t *testing.T) {
			r := NewInlineRunner()
			var fx Effects
			var got []string
			note := func(s string) func() { return func() { got = append(got, s) } }
			outer := func() {
				fx.Defer(func() {
					got = append(got, "a")
					fx.Exec(r, func() {
						fx.Defer(note("a.1"))
						fx.Defer(func() {
							got = append(got, "a.2")
							fx.Exec(r, func() { fx.Defer(note("a.2.1")) })
						})
					})
				})
				fx.Defer(note("b"))
			}
			if entry == "Run" {
				// A step delivered on a Host shard: its callbacks run on
				// the shard goroutine inside the shard's serialization, so
				// the nested Execs run inline.
				h := NewHost(Options{Shards: 1})
				defer h.Close()
				r = h.Runner(1)
				h.Register(1, stepLogic(func() { fx.Run(outer) }))
				h.Send(2, 1, msg.Probe{})
				h.Drain()
			} else {
				fx.Exec(r, outer)
			}
			if want := []string{"a", "a.1", "a.2", "a.2.1", "b"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("dispatched %v, want %v", got, want)
			}
			if len(fx.fns) != 0 {
				t.Fatalf("%d callbacks left in the buffer", len(fx.fns))
			}
		})
	}
}

// stepLogic is a hosted process whose every delivered step is one call.
type stepLogic func()

func (l stepLogic) HandleMessage(transport.NodeID, msg.Message) { l() }
func (l stepLogic) Step(transport.NodeID, msg.Message)          { l() }

// TestEffectsExecRunsAfterRelease: Exec's callbacks run once the Runner
// has let go, so a callback that waits for another goroutine's Exec on
// the same Runner completes instead of deadlocking.
func TestEffectsExecRunsAfterRelease(t *testing.T) {
	r := NewInlineRunner()
	var fx Effects
	done := make(chan struct{})
	fx.Exec(r, func() {
		fx.Defer(func() {
			go fx.Exec(r, func() { fx.Defer(func() { close(done) }) })
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("another goroutine's Exec never ran: the callback ran inside the Runner")
			}
		})
	})
}

// TestEffectsRunDoesNotAllocate: the runtime-serialized entry reuses the
// buffer's array, and Call's words ride the entry, so a steady stream
// of steps that defer costs nothing.
func TestEffectsRunDoesNotAllocate(t *testing.T) {
	var fx Effects
	n := uint64(0)
	cb := func() { n++ }
	fx.Callback = func(_, arg uint64) { n += arg }
	i := uint64(0)
	step := func() { i++; fx.Defer(cb); fx.Call(0, i) }
	if a := testing.AllocsPerRun(1000, func() { fx.Run(step) }); a != 0 {
		t.Fatalf("%v allocs per Run, want 0", a)
	}
	if want := 1001 + 1001*1002/2; n != uint64(want) {
		t.Fatalf("callbacks summed to %d, want %d", n, want)
	}
}

// fxLogic is a hosted process whose steps defer a callback recording
// the goroutine it runs on.
type fxLogic struct {
	fx  Effects
	gid chan uint64
}

func (l *fxLogic) HandleMessage(from transport.NodeID, m msg.Message) { l.Step(from, m) }
func (l *fxLogic) Step(transport.NodeID, msg.Message) {
	l.fx.Run(func() { l.fx.Defer(func() { l.gid <- curGID() }) })
}

// TestEffectsGoroutinePerEntry: on a Host, a delivered step's callbacks
// and a Post's run on the shard's loop goroutine, and an Exec's on the
// goroutine that called it.
func TestEffectsGoroutinePerEntry(t *testing.T) {
	h := NewHost(Options{Shards: 1})
	defer h.Close()
	l := &fxLogic{gid: make(chan uint64, 1)}
	h.Register(1, l)
	h.Send(2, 1, msg.Probe{})
	if got, want := <-l.gid, h.shards[0].gid.Load(); got != want {
		t.Fatalf("Step's callback ran on goroutine %d, want the shard's %d", got, want)
	}
	if !l.fx.Post(h.Runner(1), stepFunc(func() { l.fx.Defer(func() { l.gid <- curGID() }) })) {
		t.Fatal("Post on an open Host did not queue its step")
	}
	if got, want := <-l.gid, h.shards[0].gid.Load(); got != want {
		t.Fatalf("Post's callback ran on goroutine %d, want the shard's %d", got, want)
	}
	var got uint64
	l.fx.Exec(h.Runner(1), func() { l.fx.Defer(func() { got = curGID() }) })
	if want := curGID(); got != want {
		t.Fatalf("Exec's callback ran on goroutine %d, want the caller's %d", got, want)
	}
}

// TestEffectsPostRefusedRunsNothing: where nothing can take a queued
// step — the inline runner, or a Host that is closed — Post runs
// nothing and says it queued nothing, so the caller can run the step
// through Exec instead.
func TestEffectsPostRefusedRunsNothing(t *testing.T) {
	closed := NewHost(Options{Shards: 1})
	closed.Close()
	for name, r := range map[string]Runner{"inline": NewInlineRunner(), "closed host": closed.Runner(1)} {
		t.Run(name, func(t *testing.T) {
			var fx Effects
			steps := 0
			if fx.Post(r, stepFunc(func() { steps++ })) {
				t.Fatal("Post reported the step queued")
			}
			closed.Drain()
			if steps != 0 {
				t.Fatalf("a refused Post ran its step %d times", steps)
			}
		})
	}
}

// countCmd is a reusable Command whose step defers a Call.
type countCmd struct {
	fx     *Effects
	steps  int
	called uint64
}

func (c *countCmd) Step() {
	c.steps++
	c.fx.Call(0, uint64(c.steps))
}

// TestPostedCommandAllocatesNothing: a posted command rides the shard
// queue as the value it is, and its step and callback run through the
// posting process's Effects, so a steady stream of posts to an idle
// shard allocates nothing.
func TestPostedCommandAllocatesNothing(t *testing.T) {
	h := NewHost(Options{Shards: 1})
	defer h.Close()
	r := h.Runner(1)
	var fx Effects
	cmd := &countCmd{fx: &fx}
	fx.Callback = func(_, arg uint64) { cmd.called = arg }
	post := func() {
		if !fx.Post(r, cmd) {
			t.Fatal("Post on an open Host did not queue its command")
		}
		h.Drain()
	}
	post() // grow the queue's double buffer and the effect buffer once
	post()
	if got := testing.AllocsPerRun(200, post); got != 0 {
		t.Fatalf("%v allocs per posted command, want 0", got)
	}
	if cmd.steps != 203 || cmd.called != 203 {
		t.Fatalf("%d steps ran and the last callback saw %d, want 203 and 203", cmd.steps, cmd.called)
	}
}

// postLogic is a hosted process whose first delivered step defers a
// callback that posts two more steps, like an OnCommit that submits.
// Every step and callback appends to log, on the shard goroutine only.
type postLogic struct {
	fx  Effects
	run Runner
	log []string
}

func (l *postLogic) HandleMessage(from transport.NodeID, m msg.Message) { l.Step(from, m) }
func (l *postLogic) Step(_ transport.NodeID, m msg.Message) {
	l.fx.Run(func() {
		name := fmt.Sprintf("m%d", m.(msg.Probe).Tag.N)
		l.log = append(l.log, name)
		if name != "m1" {
			return
		}
		l.fx.Defer(func() {
			l.log = append(l.log, "m1 callback")
			for _, p := range []string{"p1", "p2"} {
				l.fx.Post(l.run, stepFunc(func() { l.log = append(l.log, p) }))
			}
		})
	})
}

// TestPostFromShardCallback: a step posted from a callback on the shard's
// own goroutine does not run inline and does not deadlock waiting for
// itself; it joins the queue, so it runs after the rest of the current
// batch, and posts run in the order they were made.
func TestPostFromShardCallback(t *testing.T) {
	h := NewHost(Options{Shards: 1})
	defer h.Close()
	l := &postLogic{run: h.Runner(1)}
	h.Register(1, l)
	// Hold the shard in one batch while m1 and m2 queue behind it, so the
	// two are the next batch together.
	hold := make(chan struct{})
	h.Runner(1).(poster).Post(nil, stepFunc(func() { <-hold }))
	h.Send(2, 1, msg.Probe{Tag: id.Tag{N: 1}})
	h.Send(2, 1, msg.Probe{Tag: id.Tag{N: 2}})
	close(hold)
	drained := make(chan struct{})
	go func() { h.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("the shard never parked: a post from its own callback deadlocked")
	}
	want := []string{"m1", "m1 callback", "m2", "p1", "p2"}
	if !reflect.DeepEqual(l.log, want) {
		t.Fatalf("ran %v, want %v", l.log, want)
	}
}
