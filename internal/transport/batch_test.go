package transport_test

// Tests for write-side frame batching as observed through the public
// TCP surface.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// idTag builds a probe tag carrying n as the computation number, which
// the batching tests use as a per-frame ordinal.
func idTag(n uint64) id.Tag { return id.Tag{Initiator: 1, N: n} }

// pollUntil polls cond until it holds or the deadline passes.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// sendBurst sends n sequenced probes 1->2 on net_ and waits for the
// recorder to see them all, returning the received computation numbers.
func sendBurst(t *testing.T, net_ *transport.TCP, n int) []uint64 {
	t.Helper()
	var mu sync.Mutex
	var got []uint64
	net_.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	net_.Register(2, transport.HandlerFunc(func(_ transport.NodeID, m msg.Message) {
		mu.Lock()
		got = append(got, msg.Deref(m).(msg.Probe).Tag.N)
		mu.Unlock()
	}))
	for i := 0; i < n; i++ {
		net_.Send(1, 2, msg.Probe{Tag: idTag(uint64(i + 1))})
	}
	pollUntil(t, "burst delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	return append([]uint64(nil), got...)
}

func TestBatchedWritesPreserveFIFO(t *testing.T) {
	const n = 5000
	net_ := transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: 64})
	defer net_.Close()
	got := sendBurst(t, net_, n)
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("frame %d carried N=%d, want %d (batching broke FIFO)", i, v, i+1)
		}
	}
	st := net_.Stats()
	if st.FramesWritten != n {
		t.Fatalf("FramesWritten = %d, want %d", st.FramesWritten, n)
	}
	if st.Flushes >= st.FramesWritten {
		t.Fatalf("Flushes = %d >= FramesWritten = %d: no coalescing happened", st.Flushes, st.FramesWritten)
	}
	if st.VectorFlushes != st.Flushes {
		t.Fatalf("VectorFlushes = %d of %d flushes: every sender-loop flush must be one gathered write",
			st.VectorFlushes, st.Flushes)
	}
}

func TestMaxBatchOneFlushesPerFrame(t *testing.T) {
	const n = 200
	net_ := transport.NewTCPWithOptions(transport.TCPOptions{MaxBatch: 1})
	defer net_.Close()
	got := sendBurst(t, net_, n)
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("frame %d carried N=%d, want %d", i, v, i+1)
		}
	}
	st := net_.Stats()
	if st.FramesWritten != n || st.Flushes != n {
		t.Fatalf("FramesWritten/Flushes = %d/%d, want %d/%d (MaxBatch=1 is per-frame)",
			st.FramesWritten, st.Flushes, n, n)
	}
}

func TestBatchingSurvivesConnectionDrop(t *testing.T) {
	// Frames written in batches across a forced connection drop must
	// still arrive exactly once, in order (replay + dedup under
	// batching).
	const n = 2000
	errs := &errList{}
	o := fastRetry(errs)
	o.MaxBatch = 32
	net_ := transport.NewTCPWithOptions(o)
	defer net_.Close()

	var mu sync.Mutex
	var got []uint64
	net_.Register(1, transport.HandlerFunc(func(transport.NodeID, msg.Message) {}))
	net_.Register(2, transport.HandlerFunc(func(_ transport.NodeID, m msg.Message) {
		mu.Lock()
		got = append(got, msg.Deref(m).(msg.Probe).Tag.N)
		mu.Unlock()
	}))
	for i := 0; i < n; i++ {
		net_.Send(1, 2, msg.Probe{Tag: idTag(uint64(i + 1))})
		if i == n/2 {
			net_.DropConnections()
		}
	}
	pollUntil(t, "all frames after drop", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("frame %d carried N=%d, want %d (drop broke exactly-once FIFO)", i, v, i+1)
		}
	}
}
