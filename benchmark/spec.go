package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/wal"
)

// Fixed set-up shared by every workload (README.md, "Fixed set-up").
const (
	clusterHosts = 3
	hostShards   = 2
	numSites     = 48
	tcpMaxBatch  = 64
	satClients   = 64
	delayT       = 5 * time.Millisecond // §4.3 continuous-wait threshold T
	retryBackoff = 5 * time.Millisecond // linear: attempt × backoff + jitter
)

// workload is one row of the benchmark.
type workload struct {
	name string
	why  string
	// storm marks the frame-storm/restore workload; the rest are
	// transaction workloads.
	storm bool
	// cluster selects the 3-host gossip cluster over loopback TCP with the
	// WAL on; false is one engine.Host with no TCP, WAL or directory.
	cluster bool
	fsync   wal.SyncPolicy
	mix     txnMix
	// rssAt is the commit count at which peak_rss_mb is sampled: every
	// committed transaction stays in its controller's table, so RSS grows
	// with work done, and sampling at a fixed count keeps a faster build
	// from being charged for committing more in the same seconds.
	rssAt int64
}

// txnMix shapes the seeded transaction scripts.
type txnMix struct {
	keys               int64
	minLocks, maxLocks int
	writeFrac          float64
}

var (
	uniformMix   = txnMix{keys: 65536, minLocks: 2, maxLocks: 4, writeFrac: 0.05}
	contendedMix = txnMix{keys: 768, minLocks: 3, maxLocks: 5, writeFrac: 0.50}
)

var workloads = []workload{
	{
		name:    "cluster-uniform",
		why:     "north-star row: 3-host gossip cluster, WAL fsync=interval, 65536 uniform keys, 2-4 locks, 5% writes; msg, transport, engine ingress and cluster lookup do the work, the probe path almost none",
		cluster: true, fsync: wal.SyncInterval, mix: uniformMix, rssAt: 60000,
	},
	{
		name:    "cluster-contended",
		why:     "same cluster, 768 keys, 3-5 locks, 50% writes: lock queues, waits, probes, declarations, victim aborts and retries; ddb does the work, and only here is detection latency sampled",
		cluster: true, fsync: wal.SyncInterval, mix: contendedMix, rssAt: 40000,
	},
	{
		name:    "cluster-fsync",
		why:     "cluster-uniform with fsync=always: same wire traffic, but the host-wide WAL lock plus fsync sets the pace; a group-commit change shows here and should move nothing on cluster-uniform",
		cluster: true, fsync: wal.SyncAlways, mix: uniformMix, rssAt: 3000,
	},
	{
		name: "host-local",
		why:  "cluster-uniform's mix on one engine.Host, no TCP, WAL or directory: a codec or flush change must not move it, an engine or ddb change moves it most",
		mix:  uniformMix, rssAt: 80000,
	},
	{
		name:  "storm-restore",
		why:   "two hosts, core processes: windowed one-way probe storm, checkpoint, more storm, crash, restore; transport as bulk batches, wal as scan/replay, engine restore instead of step",
		storm: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// metricDef names one gated end-to-end metric.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a larger value is better
	bound  float64 // allowed relative worsening; failed_share's is absolute
}

// endToEnd is the harness's gated table, printed per producing workload
// and checked by -aa. Each bound is about three times the spread
// (quartile distance over median) the metric showed over ten seeds on the
// 2-core box the benchmark was sized on, capped at the 0.25 the driver's
// contract allows; the solo p99, whose spread no bound within that cap
// covers, is reported as driver.solo_commit_p99_us instead.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"commits_per_s", "1/s", true, 0.25},
	{"cpu_us_per_commit", "us", false, 0.25},
	{"commit_p50_us", "us", false, 0.25},
	{"detect_p50_us", "us", false, 0.25},
	{"storm_kframes_per_s", "kframes/s", true, 0.25},
	{"restore_kframes_per_s", "kframes/s", true, 0.25},
	{"peak_rss_mb", "MB", false, 0.20},
	{"failed_share", "ratio", false, 0},
}

// contractEndToEnd is the subset every transaction workload produces,
// which is what BENCHMARK.json can list.
var contractEndToEnd = []string{
	"setup_s", "commits_per_s", "cpu_us_per_commit", "commit_p50_us", "peak_rss_mb",
}

// plan holds the phase lengths of one run.
type plan struct {
	soloWarm, solo  time.Duration
	satWarm, window time.Duration
	windows         int
	settle          time.Duration
	// soloTxns/satTxns, when > 0, end a phase by commit count instead of
	// by the clock (-quick and the tests).
	soloTxns, satTxns int
	setups            int
	auditTxns         int
	stormPre          int
	stormTail         int
	stormRounds       int
	ladderScale       int // divides every ladder loop count
}

// planFor splits seconds into the issue's proportions: solo 1+6, sat
// 2+6x2 out of 21. A traced invocation runs two legs (untraced then
// traced) at half length each.
func planFor(seconds float64, traced bool) plan {
	u := time.Duration(seconds / 21 * float64(time.Second))
	if traced {
		u /= 2
	}
	return plan{
		soloWarm: u, solo: 6 * u, satWarm: 2 * u, window: 2 * u, windows: 6,
		settle: 3 * time.Second, setups: 5, auditTxns: 600,
		stormPre: 200_000, stormTail: 600_000, stormRounds: 5, ladderScale: 1,
	}
}

// quickPlan is the smoke configuration: phases end by commit count.
func quickPlan() plan {
	return plan{
		windows: 1, settle: 3 * time.Second, soloTxns: 100, satTxns: 400,
		setups: 1, auditTxns: 150,
		stormPre: 2000, stormTail: 6000, stormRounds: 1, ladderScale: 50,
	}
}

func (p plan) String() string {
	if p.soloTxns > 0 {
		return fmt.Sprintf("solo %d txns, sat %d txns", p.soloTxns, p.satTxns)
	}
	return fmt.Sprintf("solo %.2g+%.2g s, sat %.2g+%dx%.2g s",
		p.soloWarm.Seconds(), p.solo.Seconds(), p.satWarm.Seconds(), p.windows, p.window.Seconds())
}
