package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/msg"
	"repro/internal/transport"
)

// nestingLogic re-enters its own Runner from every step, like an engine
// callback calling back into the public API. count is plain on purpose:
// it is written by nested and by foreign Exec calls, so the race
// detector checks that the two stay mutually exclusive.
type nestingLogic struct {
	run    Runner
	count  int
	nested int
}

func (l *nestingLogic) HandleMessage(from transport.NodeID, m msg.Message) { l.Step(from, m) }

func (l *nestingLogic) Step(transport.NodeID, msg.Message) {
	l.run.Exec(func() { l.count++; l.nested++ })
}

// TestShardExecNestedUnderForeignLoad checks the stepping flag's
// soundness under -race: while foreign goroutines hammer Exec on a shard
// (so the flag flips constantly and is read from outside all the time),
// an Exec nested in a step callback still runs inline — were it
// enqueued, the step would wait for itself and the test would hang —
// and never concurrently with a foreign one.
func TestShardExecNestedUnderForeignLoad(t *testing.T) {
	const foreign, perForeign, steps = 4, 2000, 4000
	h := NewHost(Options{Shards: 1})
	defer h.Close()
	l := &nestingLogic{run: h.Runner(7)}
	h.Register(7, l)

	var wg sync.WaitGroup
	for g := 0; g < foreign; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perForeign; i++ {
				l.run.Exec(func() { l.count++ })
			}
		}()
	}
	for i := 0; i < steps; i++ {
		h.Send(8, 7, msg.Request{})
	}
	wg.Wait()
	h.Drain()
	var count, nested int
	l.run.Exec(func() { count, nested = l.count, l.nested })
	if nested != steps {
		t.Fatalf("%d of %d nested Exec calls ran", nested, steps)
	}
	if want := steps + foreign*perForeign; count != want {
		t.Fatalf("count = %d, want %d (lost updates: Exec calls overlapped)", count, want)
	}
}

// TestShardExecIdleAllocs: a foreign Exec on an idle shard allocates at
// most a rendezvous, when its pool is empty — in particular it does not
// parse the goroutine id, whose stack-header buffer escapes.
func TestShardExecIdleAllocs(t *testing.T) {
	h := NewHost(Options{Shards: 1})
	defer h.Close()
	r := h.Runner(1)
	noop := func() {}
	r.Exec(noop) // grow the queue's double buffer once
	r.Exec(noop)
	if got := testing.AllocsPerRun(200, func() {
		h.Drain() // idle: the loop has left the batch and lowered the flag
		r.Exec(noop)
	}); got > 1 {
		t.Fatalf("foreign Exec on an idle shard: %v allocs, want at most 1 (a rendezvous)", got)
	}
}

type nopLogic struct{}

func (nopLogic) HandleMessage(transport.NodeID, msg.Message) {}
func (nopLogic) Step(transport.NodeID, msg.Message)          {}

// BenchmarkShardExec prices one Runner.Exec on a hosted process: from a
// foreign goroutine with the shard idle (the flag is down, no id is
// parsed), with the shard kept mid-batch by a message flood (the flag is
// up, the id is parsed and does not match), and nested in a step (the
// id is parsed and matches).
func BenchmarkShardExec(b *testing.B) {
	noop := func() {}
	b.Run("idle", func(b *testing.B) {
		h := NewHost(Options{Shards: 1})
		defer h.Close()
		r := h.Runner(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Exec(noop)
		}
	})
	b.Run("busy", func(b *testing.B) {
		h := NewHost(Options{Shards: 1})
		defer h.Close()
		h.Register(1, nopLogic{})
		r := h.Runner(1)
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for i := 0; i < 64; i++ {
					h.Send(2, 1, msg.Request{})
				}
				h.Drain() // bound the backlog an Exec queues behind
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Exec(noop)
		}
		b.StopTimer()
		stop.Store(true)
		wg.Wait()
	})
	b.Run("nested", func(b *testing.B) {
		h := NewHost(Options{Shards: 1})
		defer h.Close()
		r := h.Runner(1)
		b.ReportAllocs()
		b.ResetTimer()
		r.Exec(func() {
			for i := 0; i < b.N; i++ {
				r.Exec(noop)
			}
		})
	})
}
