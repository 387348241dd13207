package transport_test

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// nopGroupLog is a GroupDeliveryLog that journals nothing: attached to
// an inbox, it routes every in-order frame through the group stage.
type nopGroupLog struct{}

func (nopGroupLog) LogDelivery(transport.NodeID, bool, uint64, uint64, transport.NodeID, transport.NodeID, msg.Message) {
}

func (nopGroupLog) AppendDelivery(transport.NodeID, bool, uint64, uint64, transport.NodeID, transport.NodeID, msg.Message) bool {
	return true
}

func (nopGroupLog) CommitDeliveries() {}

// transportGoroutines returns the ids of the live goroutines running
// code of this package. Ids are never reused, so the ids in a later
// set that are missing from an earlier one are exactly the goroutines
// started in between, whatever else exits meanwhile.
func transportGoroutines() map[string]bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := make(map[string]bool)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "repro/internal/transport.(*") {
			ids[strings.Fields(g)[1]] = true
		}
	}
	return ids
}

// TestInboxHandsOffOneFrameAtATime: two source hosts stream to a third
// host's plain HandlerFunc while every connection is dropped several
// times mid-stream, so each stream's frames arrive on overlapping
// connections served by concurrent readers. The reader that holds the
// inbox lock hands each in-order frame straight to the handler: calls
// never overlap, and each source's frames arrive once, in send order.
// The hand-off needs no goroutine of its own: ListenHost starts exactly
// one, the accept loop. The group leg attaches a batched delivery log,
// so frames reach the handler through the group stage.
func TestInboxHandsOffOneFrameAtATime(t *testing.T) {
	for _, leg := range []struct {
		name string
		lg   transport.DeliveryLog
	}{{"direct", nil}, {"group", nopGroupLog{}}} {
		t.Run(leg.name, func(t *testing.T) {
			const perSource = 1500
			dst := transport.NewTCP()
			defer dst.Close()
			before := transportGoroutines()
			if err := dst.ListenHost(3, "127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			added := 0
			for g := range transportGoroutines() {
				if !before[g] {
					added++
				}
			}
			if added != 1 {
				t.Fatalf("ListenHost started %d goroutines, want 1 (the accept loop)", added)
			}

			var inFlight, maxInFlight atomic.Int32
			var mu sync.Mutex
			next := map[transport.NodeID]uint64{1: 1, 2: 1}
			broken := false
			delivered := 0
			dst.Register(3, transport.HandlerFunc(func(from transport.NodeID, m msg.Message) {
				n := inFlight.Add(1)
				for {
					peak := maxInFlight.Load()
					if n <= peak || maxInFlight.CompareAndSwap(peak, n) {
						break
					}
				}
				runtime.Gosched() // widen the window an overlapping call would hit
				seq := msg.Deref(m).(msg.Probe).Tag.N
				mu.Lock()
				if seq != next[from] && !broken {
					broken = true
					t.Errorf("from %d: frame %d, want %d (FIFO broken)", from, seq, next[from])
				}
				next[from] = seq + 1
				delivered++
				mu.Unlock()
				inFlight.Add(-1)
			}))
			if leg.lg != nil {
				if err := dst.SetDeliveryLog(3, leg.lg); err != nil {
					t.Fatal(err)
				}
			}

			srcs := make([]*transport.TCP, 2)
			for i := range srcs {
				srcs[i] = transport.NewTCP()
				defer srcs[i].Close()
				srcs[i].SetPeer(3, dst.HostAddr(3))
			}
			var wg sync.WaitGroup
			for i, src := range srcs {
				from := transport.NodeID(i + 1)
				wg.Add(1)
				go func(src *transport.TCP) {
					defer wg.Done()
					for n := uint64(1); n <= perSource; n++ {
						src.Send(from, 3, msg.Probe{Tag: id.Tag{Initiator: id.Proc(from), N: n}})
						if n%500 == 0 {
							dst.DropConnections()
							src.DropConnections()
						}
					}
				}(src)
			}
			wg.Wait()
			pollUntil(t, "every frame to arrive", func() bool {
				mu.Lock()
				defer mu.Unlock()
				return delivered >= 2*perSource
			})
			if peak := maxInFlight.Load(); peak > 1 {
				t.Fatalf("%d handler calls overlapped, want at most 1 at a time", peak)
			}
			mu.Lock()
			defer mu.Unlock()
			if delivered != 2*perSource {
				t.Fatalf("%d frames delivered, want %d", delivered, 2*perSource)
			}
			if st := dst.Stats(); st.MailboxPeak != 0 {
				t.Fatalf("MailboxPeak = %d, want 0", st.MailboxPeak)
			}
		})
	}
}
