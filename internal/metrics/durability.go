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
	// The achieved group-commit factor: journal records this process
	// appended per fsync of the log (0 when it never synced). Derived
	// from the two counters above, so observing it costs the hot path
	// nothing.
	perSync := 0.0
	if c.LogSyncs > 0 {
		perSync = float64(c.RecordsAppended) / float64(c.LogSyncs)
	}
	t.AddRow("records per sync", perSync)
	t.AddRow("last checkpoint seq", c.LastCheckpointSeq)
	return t.String()
}
