package metrics

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/msg"
	"repro/internal/transport"
)

func TestCountersTally(t *testing.T) {
	c := NewCounters()
	c.OnSend(1, 2, msg.Request{})
	c.OnSend(1, 2, msg.Probe{})
	c.OnSend(2, 1, msg.Probe{})
	c.OnDeliver(1, 2, msg.Request{})
	if c.Sent(msg.KindProbe) != 2 || c.Sent(msg.KindRequest) != 1 {
		t.Fatalf("sent counts wrong: %v", c.Snapshot())
	}
	if c.Delivered(msg.KindRequest) != 1 || c.Delivered(msg.KindProbe) != 0 {
		t.Fatal("delivered counts wrong")
	}
	if c.TotalSent() != 3 {
		t.Fatalf("total = %d", c.TotalSent())
	}
	snap := c.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot rows = %d", len(snap))
	}
	c.Reset()
	if c.TotalSent() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.OnSend(1, 2, msg.Reply{})
			}
		}()
	}
	wg.Wait()
	if got := c.Sent(msg.KindReply); got != 8000 {
		t.Fatalf("concurrent count = %d", got)
	}
}

func TestSeriesStatistics(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty series stats nonzero")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.N() != 5 || s.Mean() != 3 || s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("stats wrong: n=%d mean=%v min=%v max=%v", s.N(), s.Mean(), s.Min(), s.Max())
	}
	if p := s.Percentile(50); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := s.Percentile(100); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
}

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	c.AddTP()
	c.AddTP()
	c.AddFP()
	c.AddFN()
	c.AddTN()
	counts := c.Counts()
	if counts.TP != 2 || counts.FP != 1 || counts.FN != 1 || counts.TN != 1 {
		t.Fatalf("counts = %+v", counts)
	}
	var sum ConfusionCounts
	sum.Add(counts)
	sum.Add(counts)
	if sum.TP != 4 {
		t.Fatalf("sum = %+v", sum)
	}
	if !strings.Contains(c.String(), "TP=2") {
		t.Fatalf("string = %q", c.String())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("title", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 2.5)
	tb.AddRow("c", 3.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "title" {
		t.Fatalf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Fatalf("header = %q", lines[1])
	}
	if !strings.Contains(lines[4], "2.50") {
		t.Fatalf("float row = %q", lines[4])
	}
	if !strings.Contains(lines[5], "3") || strings.Contains(lines[5], "3.00") {
		t.Fatalf("integral float should render bare: %q", lines[5])
	}
}

func TestTCPStatsTable(t *testing.T) {
	s := transport.TCPStats{Dials: 3, DialRetries: 2, Connects: 1, Reconnects: 1, Replayed: 40}
	out := TCPStatsTable(s)
	for _, want := range []string{"tcp transport", "dial retries", "frames replayed", "40"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats table missing %q:\n%s", want, out)
		}
	}
}

// TestDurabilityStatsTableRecordsPerSync pins the derived group-commit
// rows: records appended over log syncs and over log writes, and 0 —
// not a division by zero — for a log that never synced or wrote.
func TestDurabilityStatsTableRecordsPerSync(t *testing.T) {
	out := DurabilityStatsTable(DurabilityCounters{RecordsAppended: 900, LogSyncs: 120, LogWrites: 225})
	for _, want := range []string{"records per sync", "7.5", "log writes", "225", "records per write", "4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table lacks %q (records per sync 7.5, per write 4):\n%s", want, out)
		}
	}
	out = DurabilityStatsTable(DurabilityCounters{RecordsAppended: 900})
	for _, line := range strings.Split(out, "\n") {
		for _, row := range []string{"records per sync", "records per write"} {
			if strings.HasPrefix(line, row) && strings.TrimSpace(strings.TrimPrefix(line, row)) != "0" {
				t.Fatalf("never-synced, never-written log renders %q, want 0", line)
			}
		}
	}
}
