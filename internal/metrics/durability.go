package metrics

// DurabilityCounters is the flattened union of a Host's checkpoint/WAL
// accounting (engine.HostStats) and the attached log's own counters
// (wal.Stats). It is plain data rather than those structs so the
// metrics package stays import-free of the engine — engine's own tests
// render tables, and a metrics->engine edge would cycle.
type DurabilityCounters struct {
	// From engine.HostStats.
	CheckpointsTaken   uint64
	RecordsAppended    uint64
	TailReplayed       uint64
	TornRecordsDropped uint64
	StaleGenDropped    uint64
	MutedReplaySends   uint64
	WALErrors          uint64
	// From wal.Stats.
	LogRecords        uint64
	LogSegments       int
	LogSyncs          uint64
	LogWrites         uint64
	LastCheckpointSeq uint64
}

// DurabilityStatsTable renders the recovery counters as one
// fixed-width table, in the experiment-table style — used by
// cmd/cmhnode to report recovery health at exit and by the crash-smoke
// harness.
func DurabilityStatsTable(c DurabilityCounters) string {
	t := NewTable("durability", "counter", "value")
	t.AddRow("checkpoints taken", c.CheckpointsTaken)
	t.AddRow("records appended", c.RecordsAppended)
	t.AddRow("tail replayed", c.TailReplayed)
	t.AddRow("torn records dropped", c.TornRecordsDropped)
	t.AddRow("stale-gen dropped", c.StaleGenDropped)
	t.AddRow("muted replay sends", c.MutedReplaySends)
	t.AddRow("wal errors", c.WALErrors)
	t.AddRow("log records", c.LogRecords)
	t.AddRow("log segments", c.LogSegments)
	t.AddRow("log syncs", c.LogSyncs)
	// The achieved group sizes: journal records this process appended
	// per fsync and per write(2) of the log (0 when it never did one).
	// Derived from the counters, so observing them costs the hot path
	// nothing.
	t.AddRow("records per sync", perCall(c.RecordsAppended, c.LogSyncs))
	t.AddRow("log writes", c.LogWrites)
	t.AddRow("records per write", perCall(c.RecordsAppended, c.LogWrites))
	t.AddRow("last checkpoint seq", c.LastCheckpointSeq)
	return t.String()
}

func perCall(records, calls uint64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(records) / float64(calls)
}
