package conformance

import (
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/explore"
	"repro/internal/msg"
	"repro/internal/transport"
)

// frameHash is an Observer that hashes the (from, to, frame) sequence
// of a run: each message's §9 wire frame, length prefix and envelope
// addresses included, once when it is sent and once when it is
// delivered, in the order those happen. Deliveries alone would miss a
// reordered send loop on the explorer's network, whose first schedule
// picks links in (from, to) order whatever order they were filled in.
type frameHash struct {
	t   *testing.T
	h   hash.Hash64
	buf []byte
	n   int
}

func newFrameHash(t *testing.T) *frameHash { return &frameHash{t: t, h: fnv.New64a()} }

func (f *frameHash) OnSend(from, to transport.NodeID, m msg.Message) { f.add('s', from, to, m) }

func (f *frameHash) OnDeliver(from, to transport.NodeID, m msg.Message) {
	f.add('d', from, to, m)
	f.n++
}

func (f *frameHash) add(event byte, from, to transport.NodeID, m msg.Message) {
	var err error
	f.buf, err = msg.AppendEnvelopeFrame(append(f.buf[:0], event), msg.Envelope{From: int32(from), To: int32(to), Msg: m})
	if err != nil {
		f.t.Fatalf("encode %d->%d %T: %v", from, to, m, err)
	}
	f.h.Write(f.buf)
}

// sum is the sequence's hash; a run that delivered nothing fails, since
// its hash would prove nothing.
func (f *frameHash) sum(name string) uint64 {
	if f.n == 0 {
		f.t.Fatalf("%s: no frame delivered", name)
	}
	return f.h.Sum64()
}

// replayRuns is how many times TestReplayIdentity runs each case. Two
// would do for a loop over a large map, but a loop over a two-key map
// comes out reversed on only about one run in eight, and the OR corpus
// has such loops.
const replayRuns = 32

// TestReplayIdentity runs every committed conformance sim seed and the
// first schedule of every explore corpus scenario replayRuns times in
// one process and requires every run to send and deliver the same
// frames in the same order. A step that is not a function of (state,
// input) — a send loop over a Go map, say — reorders them between runs.
func TestReplayIdentity(t *testing.T) {
	// The differential suite's five specs are the first five here.
	for _, spec := range append(crashRestoreSpecs(), clusterSpecs()...) {
		checkReplay(t, specName(spec), func(o transport.Observer) error {
			_, err := runSim(spec, o)
			return err
		})
	}
	for _, e := range explore.Corpus() {
		opts := e.Opts
		opts.MaxSchedules, opts.Budget = 1, 0
		checkReplay(t, e.Name, func(o transport.Observer) error {
			_, err := explore.Run(func(net *explore.ChoiceNet) (explore.Instance, error) {
				net.Observe(o)
				return e.Build(net)
			}, opts)
			return err
		})
	}
}

// checkReplay runs one case replayRuns times, each with a fresh
// frameHash, and fails on the first run whose hash differs from the
// first run's.
func checkReplay(t *testing.T, name string, run func(transport.Observer) error) {
	t.Helper()
	var first uint64
	for i := 0; i < replayRuns; i++ {
		h := newFrameHash(t)
		if err := run(h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sum := h.sum(name); i == 0 {
			first = sum
		} else if sum != first {
			t.Errorf("%s: run %d sent or delivered different frames than run 1 (%016x, %016x)", name, i+1, sum, first)
			return
		}
	}
}
