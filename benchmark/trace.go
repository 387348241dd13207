package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// Tracing lives entirely in benchmark/: every span is recorded around a
// call into a layer's public function, through decorators handed to the
// layers in place of the real object. Spans of one transaction share its
// id; the root span (submit → commit) is the parent of the rest.

// span is one recorded interval. Times are ns since the tracer started.
type span struct {
	Name string `json:"name"`
	Txn  int32  `json:"txn"`            // shared identifier; 0 = not tied to a transaction
	Root bool   `json:"root,omitempty"` // the transaction's submit → commit span
	// Parent names the span that caused this one: "txn", the root span
	// with the same Txn, for everything recorded on a transaction's behalf.
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// keepSpans caps the spans kept verbatim for the trace file; every span
// past the cap still feeds the per-name aggregates.
const keepSpans = 200_000

// tracer collects spans from every goroutine of a traced run.
type tracer struct {
	t0   time.Time
	hops *hopPairer

	mu    sync.Mutex
	spans []span
	durs  map[string][]int64 // per-name durations, ns
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), durs: make(map[string][]int64)}
	t.hops = &hopPairer{tr: t}
	return t
}

func (t *tracer) add(s span) {
	if !s.Root && s.Txn != 0 {
		s.Parent = "txn"
	}
	t.mu.Lock()
	if len(t.spans) < keepSpans {
		t.spans = append(t.spans, s)
	}
	t.durs[s.Name] = append(t.durs[s.Name], s.End-s.Start)
	t.mu.Unlock()
}

func (t *tracer) span(name string, txn id.Txn, start, end time.Time) {
	t.add(span{Name: name, Txn: int32(txn), Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) root(txn id.Txn, start, end time.Time) {
	t.add(span{Name: "txn", Txn: int32(txn), Root: true, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// sorted returns one span name's durations in ascending order.
func (t *tracer) sorted(name string) []int64 {
	t.mu.Lock()
	d := append([]int64(nil), t.durs[name]...)
	t.mu.Unlock()
	slices.Sort(d)
	return d
}

func (t *tracer) count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.durs[name])
}

func sum(v []int64) (s int64) {
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	return float64(sum(v)) / float64(len(v))
}

// unattributedShare is the root spans' self time as a share of their
// duration: each kept root minus the union of the kept child spans
// (submit calls, sends, hops, WAL appends) of the same transaction that
// fall inside it. It is time the transaction spent where the harness has
// no boundary: shard queues behind other work, timer goroutine start-up,
// the lock table itself.
func (t *tracer) unattributedShare() float64 {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	roots := map[int32]span{}
	kids := map[int32][]span{}
	for _, s := range spans {
		switch {
		case s.Root:
			roots[s.Txn] = s
		case s.Txn != 0:
			kids[s.Txn] = append(kids[s.Txn], s)
		}
	}
	var total, self int64
	for txn, r := range roots {
		ks := kids[txn]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, upTo := int64(0), r.Start
		for _, k := range ks {
			lo, hi := k.Start, k.End
			if lo < upTo {
				lo = upTo
			}
			if hi > r.End {
				hi = r.End
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		total += r.End - r.Start
		self += r.End - r.Start - covered
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// write dumps the kept spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// txnOf extracts the transaction a DDB frame belongs to, in either the
// value form senders produce or the pooled pointer form receivers see.
func txnOf(m msg.Message) id.Txn {
	switch v := msg.Deref(m).(type) {
	case msg.CtrlAcquire:
		return v.Txn
	case msg.CtrlGranted:
		return v.Txn
	case msg.CtrlRelease:
		return v.Txn
	case msg.CtrlProbe:
		return v.Edge.From.Txn
	case msg.CtrlAbort:
		return v.Txn
	}
	return 0
}

// tracedTransport wraps the engine.Host handed to the controllers: a
// span around every Send. Embedding forwards Register and, crucially,
// Runner, so controllers still serialize through the shard loops.
type tracedTransport struct {
	*engine.Host
	tr *tracer
}

func (t tracedTransport) Send(from, to transport.NodeID, m msg.Message) {
	txn := txnOf(m)
	t0 := time.Now()
	t.Host.Send(from, to, m)
	t.tr.span("engine.send", txn, t0, time.Now())
}

// tracedLog wraps the Host as the transport's DeliveryLog: a span
// around every WAL append.
type tracedLog struct {
	host *engine.Host
	tr   *tracer
}

func (l tracedLog) LogDelivery(stream transport.NodeID, streamIsHost bool, epoch, seq uint64, from, to transport.NodeID, m msg.Message) {
	txn := txnOf(m)
	t0 := time.Now()
	l.host.LogDelivery(stream, streamIsHost, epoch, seq, from, to, m)
	l.tr.span("wal.log_delivery", txn, t0, time.Now())
}

// tracedResolver wraps the Directory as the transport's placement
// resolver: a span around every lookup.
type tracedResolver struct {
	dir *cluster.Directory
	tr  *tracer
}

func (r tracedResolver) HostOf(node transport.NodeID) (transport.NodeID, bool) {
	t0 := time.Now()
	h, ok := r.dir.HostOf(node)
	r.tr.span("cluster.lookup", 0, t0, time.Now())
	return h, ok
}

func (r tracedResolver) AddrOf(host transport.NodeID) (string, bool) {
	t0 := time.Now()
	a, ok := r.dir.AddrOf(host)
	r.tr.span("cluster.lookup", 0, t0, time.Now())
	return a, ok
}

// hopPairer is the engine.Host observer of a traced run. Per ordered
// (from,to) pair delivery is FIFO, so the k-th OnDeliver of a pair
// belongs to its k-th OnSend; pairing them yields one hop span per
// message, named by whether the two sites share a host.
type hopPairer struct {
	tr    *tracer
	place [numSites]transport.NodeID // site → host, set once the stack is placed
	pairs [numSites * numSites]pairQueue
}

type pairQueue struct {
	mu    sync.Mutex
	sends []int64 // send instants (ns since tracer start) not yet delivered
}

func (h *hopPairer) queue(from, to transport.NodeID) *pairQueue {
	if from < 0 || to < 0 || from >= numSites || to >= numSites {
		return nil // control-plane frames are not site traffic
	}
	return &h.pairs[int(from)*numSites+int(to)]
}

func (h *hopPairer) OnSend(from, to transport.NodeID, _ msg.Message) {
	q := h.queue(from, to)
	if q == nil {
		return
	}
	t := time.Since(h.tr.t0).Nanoseconds()
	q.mu.Lock()
	q.sends = append(q.sends, t)
	q.mu.Unlock()
}

func (h *hopPairer) OnDeliver(from, to transport.NodeID, m msg.Message) {
	q := h.queue(from, to)
	if q == nil {
		return
	}
	end := time.Since(h.tr.t0).Nanoseconds()
	q.mu.Lock()
	if len(q.sends) == 0 {
		q.mu.Unlock()
		return
	}
	start := q.sends[0]
	q.sends = q.sends[1:]
	q.mu.Unlock()
	name := "transport.hop_remote"
	if h.place[from] == h.place[to] {
		name = "engine.hop_intra"
	}
	h.tr.add(span{Name: name, Txn: int32(txnOf(m)), Start: start, End: end})
}
