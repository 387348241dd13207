package metrics

import "repro/internal/transport"

// TCPStatsTable renders a TCP transport's failure-handling counters as
// a fixed-width table, in the same style as the experiment tables —
// used by cmd/cmhnode and the livenet example to report connection
// health at exit.
func TCPStatsTable(s transport.TCPStats) string {
	t := NewTable("tcp transport", "counter", "value")
	t.AddRow("dials", s.Dials)
	t.AddRow("dial retries", s.DialRetries)
	t.AddRow("connects", s.Connects)
	t.AddRow("reconnects", s.Reconnects)
	t.AddRow("dial deadlines", s.DialDeadlines)
	t.AddRow("write errors", s.WriteErrors)
	t.AddRow("read errors", s.ReadErrors)
	t.AddRow("frames replayed", s.Replayed)
	t.AddRow("frames deduplicated", s.Duplicates)
	t.AddRow("frames resequenced", s.Resequenced)
	t.AddRow("held frames dropped", s.HeldFramesDropped)
	t.AddRow("held frames purged", s.HeldFramesPurged)
	t.AddRow("frames written", s.FramesWritten)
	t.AddRow("stream flushes", s.Flushes)
	t.AddRow("vectored flushes", s.VectorFlushes)
	t.AddRow("heartbeats sent", s.HeartbeatsSent)
	t.AddRow("acks sent", s.AcksSent)
	t.AddRow("acks received", s.AcksReceived)
	t.AddRow("replay frames pruned", s.FramesPruned)
	t.AddRow("peer down verdicts", s.PeerDowns)
	t.AddRow("peer up verdicts", s.PeerUps)
	return t.String()
}
