package engine

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/transport"
)

// TestMigrationInstallReplaysParkedFrames walks one move between two
// Hosts by hand, the way the cluster agent drives it but with no wire:
// frames parked on the source and frames parked in the target's shell
// are all stepped by the install, in arrival order, into the restored
// state; a parked flush marker goes to the control hook instead.
func TestMigrationInstallReplaysParkedFrames(t *testing.T) {
	const node, sender = 7, 1
	src := engineHost(t, Options{Shards: 1})
	dst := engineHost(t, Options{Shards: 1})
	before := &snapLogic{}
	src.Register(node, before)

	for n := uint64(1); n <= 3; n++ { // stepped on the source
		src.Send(sender, node, probeN(n))
	}
	src.Drain()
	if err := src.Park(node); err != nil {
		t.Fatal(err)
	}
	for n := uint64(4); n <= 6; n++ { // parked on the source
		src.Send(sender, node, probeN(n))
	}
	src.Drain()
	if before.steps != 3 {
		t.Fatalf("source stepped %d frames, want 3: a parked process still steps", before.steps)
	}

	after := &snapLogic{}
	dst.PrepareMigration(node)
	dst.Register(node, after)
	var markers int
	dst.SetControlHook(func(from, to transport.NodeID, _ msg.Cluster) {
		if from != sender || to != node {
			t.Errorf("flush marker %d->%d, want %d->%d", from, to, sender, node)
		}
		markers++
	})
	dst.Send(sender, node, probeN(7)) // parked in the shell
	dst.Send(sender, node, msg.Cluster{})
	dst.Drain()
	if after.steps != 0 {
		t.Fatalf("shell stepped %d frames before its state arrived", after.steps)
	}

	var state []byte
	var shipped []MigratedFrame
	if err := src.ExtractMigration(node, func(s []byte, parked []MigratedFrame) error {
		state, shipped = s, parked
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(shipped) != 3 {
		t.Fatalf("extract shipped %d parked frames, want 3", len(shipped))
	}
	if err := dst.InstallMigration(node, state, shipped); err != nil {
		t.Fatal(err)
	}
	if after.steps != 7 || after.sum != 28 || markers != 1 {
		t.Fatalf("installed process at %d steps, sum %d, %d markers; want 7, 28, 1", after.steps, after.sum, markers)
	}
	if st := dst.Stats(); st.FramesReplayed != 5 || st.MigrationsIn != 1 {
		t.Fatalf("target replayed %d frames over %d installs, want 5 over 1", st.FramesReplayed, st.MigrationsIn)
	}
	if st := src.Stats(); st.MigrationsOut != 1 {
		t.Fatalf("source MigrationsOut = %d, want 1", st.MigrationsOut)
	}
}

// TestSendGateHoldsThenFlushesInOrder: sends to a gated destination
// park until UngateSends, which delivers them in send order ahead of
// anything sent after the gate is gone. A gated frame whose destination
// has no route by flush time is dropped, not panicked on.
func TestSendGateHoldsThenFlushesInOrder(t *testing.T) {
	const node, sender, unrouted = 9, 2, 10
	h := engineHost(t, Options{Shards: 2})
	l := newLockedLogic()
	h.Register(node, l)
	h.GateSends(node)
	h.GateSends(node) // idempotent
	h.GateSends(unrouted)
	for n := uint64(1); n <= 4; n++ {
		h.Send(sender, node, probeN(n))
	}
	h.Send(sender, unrouted, probeN(1))
	h.Drain()
	if got := l.total(); got != 0 {
		t.Fatalf("%d gated frames delivered before UngateSends", got)
	}
	h.UngateSends(node)
	h.UngateSends(unrouted)
	h.Send(sender, node, probeN(5))
	h.Drain()
	if got := l.total(); got != 5 {
		t.Fatalf("%d of 5 frames delivered after UngateSends", got)
	}
	l.checkFIFO(t, node)
}
