package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"
)

// value is one reported figure with the sample count behind it.
type value struct {
	v    float64
	unit string
	n    int
}

// result is everything one workload run reported.
type result struct {
	workload  string
	values    map[string]value
	order     []string // per-layer names in report order
	attempted int64
	failed    int64
	problems  []string // failed output checks
}

func newResult(name string) *result {
	return &result{workload: name, values: map[string]value{}}
}

// set records an end-to-end metric; layer records a per-layer one.
func (r *result) set(name string, v float64, unit string, n int) {
	r.values[name] = value{v, unit, n}
}

func (r *result) layer(name string, v float64, unit string, n int) {
	if _, dup := r.values[name]; !dup {
		r.order = append(r.order, name)
	}
	r.values[name] = value{v, unit, n}
}

func (r *result) fail(n int64, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runConfig is what every workload run shares.
type runConfig struct {
	seed   int64
	plan   plan
	traced bool
	outDir string
}

// runTxn runs one transaction workload: timed set-ups, the oracle audit
// leg, then the untraced solo+sat run that yields every end-to-end
// figure and the Stats-derived layer counts. A traced invocation adds a
// second, instrumented run on a fresh stack for the span-derived figures.
func runTxn(w workload, cfg runConfig) (*result, error) {
	res := newResult(w.name)
	base := stackConfig{cluster: w.cluster, fsync: w.fsync, resolve: true, outDir: cfg.outDir}

	setups, converge, skew, err := timeSetups(w, base, cfg.plan.setups)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups), "s", len(setups))

	if err := audit(w, cfg, res); err != nil {
		return nil, err
	}

	untraced, err := runLeg(w, cfg, base, res, nil)
	if err != nil {
		return nil, err
	}
	res.layer("cluster.converge_ms", median(converge), "ms", len(converge))
	res.layer("cluster.placement_skew", skew, "ratio", 1)

	if cfg.traced {
		tr := newTracer()
		tcfg := base
		tcfg.tracer = tr
		traced, err := runLeg(w, cfg, tcfg, res, tr) // adds its checks to res, no figures
		if err != nil {
			return nil, err
		}
		traceMetrics(res, tr, traced, untraced)
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
		}
	}
	res.set("failed_share", float64(res.failed)/float64(res.attempted), "ratio", int(res.attempted))
	return res, nil
}

// timeSetups assembles and tears down the stack repeatedly and returns
// each set-up's seconds (setup_s is their median). A cluster takes ~30 ms
// to come up and the local host ~0.15 ms, so beyond the minimum count the
// repeats stretch until they add up to 50 ms. With more than one set-up
// asked for, the first 5 ms' worth (at least one) go untimed: they grow
// the heap, and the local host's set-up is otherwise mostly page faults,
// twice as slow in one run as in the next.
func timeSetups(w workload, base stackConfig, atLeast int) (secs, converge []float64, skew float64, err error) {
	once := func() (float64, *stack, error) {
		t0 := time.Now()
		st, err := assemble(base, hooks{})
		if err != nil {
			return 0, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took := time.Since(t0).Seconds()
		if err := st.close(); err != nil {
			return 0, nil, fmt.Errorf("%s: tear-down: %w", w.name, err)
		}
		return took, st, nil
	}
	for began := time.Now(); atLeast > 1; {
		if _, _, err := once(); err != nil {
			return nil, nil, 0, err
		}
		if time.Since(began) >= 5*time.Millisecond {
			break
		}
	}
	began := time.Now()
	for i := 0; i < atLeast || (atLeast > 1 && i < 100 && time.Since(began) < 50*time.Millisecond); i++ {
		took, st, err := once()
		if err != nil {
			return nil, nil, 0, err
		}
		secs = append(secs, took)
		converge = append(converge, st.convergeMs)
		skew = st.skew
	}
	return secs, converge, skew, nil
}

// leg is what one solo+sat run leaves behind for cross-run figures.
type leg struct {
	commitsPerS float64
	wallNs      int64
	counters    counters
}

// runLeg assembles a stack, drives the solo and sat phases, checks every
// admitted transaction committed, and scrapes the layers.
func runLeg(w workload, cfg runConfig, sc stackConfig, res *result, tr *tracer) (leg, error) {
	d := newDriver(cfg.seed, w, satClients, tr)
	st, err := assemble(sc, d.hooks())
	if err != nil {
		return leg{}, fmt.Errorf("%s: assemble: %w", w.name, err)
	}
	d.st = st
	if tr != nil {
		tr.hops.place = st.hostOf // no site traffic has flowed yet
	}
	p := cfg.plan
	legStart := time.Now()

	solo := d.runPhase(phase{clients: 1, warm: p.soloWarm, window: p.solo, windows: 1, maxTxns: p.soloTxns, idle: p.settle})
	sat := d.runPhase(phase{clients: satClients, warm: p.satWarm, window: p.window, windows: p.windows, maxTxns: p.satTxns, idle: p.settle})
	wallNs := time.Since(legStart).Nanoseconds()
	if d.rssMB == 0 {
		d.rssMB = maxRSSMB() // slower than rssAt commits per run: the end-of-run peak
	}
	// Let the last detection timers (T after the final waits) fire before
	// the counters are read and the shards close.
	time.Sleep(2 * delayT)
	c := st.scrape()
	closeErr := st.close()

	submitted := solo.submitted + sat.submitted
	res.attempted += submitted
	if stuck := solo.stuck + sat.stuck; stuck > 0 {
		res.fail(stuck, "%d admitted transactions never committed", stuck)
	}
	if n := d.submitErr.Load(); n > 0 {
		res.fail(n, "%d Submit calls returned an error", n)
	}
	if c.ctrl.ProtocolErrors > 0 {
		res.fail(int64(c.ctrl.ProtocolErrors), "%d frames rejected by controller ingress", c.ctrl.ProtocolErrors)
	}
	if c.host.WALErrors > 0 || closeErr != nil {
		res.fail(int64(c.host.WALErrors), "WAL: %d append errors, close: %v", c.host.WALErrors, closeErr)
	}
	if c.tcp.WriteErrors > 0 {
		res.fail(c.tcp.WriteErrors, "%d transport write errors", c.tcp.WriteErrors)
	}

	perSec, cpuUs := windowRates(sat.snaps)
	out := leg{commitsPerS: median(perSec), wallNs: wallNs, counters: c}
	if tr != nil {
		return out, nil // a traced leg contributes spans, never end-to-end figures
	}

	slices.Sort(solo.latNs)
	res.set("commits_per_s", median(perSec), "1/s", len(perSec))
	res.set("cpu_us_per_commit", median(cpuUs), "us", len(cpuUs))
	res.set("commit_p50_us", float64(percentile(solo.latNs, 0.50))/1e3, "us", len(solo.latNs))
	res.set("peak_rss_mb", d.rssMB, "MB", 1)
	slices.Sort(d.detectNs)
	if w.name == "cluster-contended" {
		res.set("detect_p50_us", float64(percentile(d.detectNs, 0.50))/1e3, "us", len(d.detectNs))
	}
	layerCounts(res, c, wallNs)
	res.layer("ddb.detect_samples", float64(len(d.detectNs)), "count", len(d.detectNs))
	res.layer("ddb.detect_p50_us", float64(percentile(d.detectNs, 0.50))/1e3, "us", len(d.detectNs))
	res.layer("ddb.detect_p99_us", float64(percentile(d.detectNs, 0.99))/1e3, "us", len(d.detectNs))
	slices.Sort(sat.submitNs)
	slices.Sort(sat.latNs)
	commits := float64(c.ctrl.Commits)
	res.layer("driver.submit_p50_us", float64(percentile(sat.submitNs, 0.50))/1e3, "us", len(sat.submitNs))
	res.layer("driver.solo_commit_p99_us", float64(percentile(solo.latNs, 0.99))/1e3, "us", len(solo.latNs))
	res.layer("driver.sat_commit_p99_us", float64(percentile(sat.latNs, 0.99))/1e3, "us", len(sat.latNs))
	res.layer("driver.resubmits_per_kcommit", 1e3*float64(d.resubmits.Load())/commits, "1/kcommit", int(commits))
	res.layer("driver.timers_per_commit", float64(c.timers)/commits, "1/commit", int(commits))
	res.layer("driver.stuck", float64(solo.stuck+sat.stuck), "count", int(submitted))
	return out, nil
}

// layerCounts turns the scraped Stats into per-commit and per-frame
// figures. Totals cover the whole leg, warm-ups included, and so does
// the commit count they are divided by.
func layerCounts(res *result, c counters, wallNs int64) {
	commits := float64(c.ctrl.Commits)
	n := int(commits)
	per := func(x, base float64) float64 {
		if base == 0 {
			return 0
		}
		return x / base
	}
	h, t, k := c.host, c.tcp, c.ctrl
	steps := float64(h.Events + h.RingEvents) // everything the shard loops executed
	res.layer("engine.events_per_commit", per(steps, commits), "1/commit", n)
	res.layer("engine.intra_sends_per_commit", per(float64(h.IntraSends), commits), "1/commit", n)
	res.layer("engine.remote_sends_per_commit", per(float64(h.RemoteSends), commits), "1/commit", n)
	res.layer("engine.events_per_batch", per(float64(h.Events), float64(h.Batches)), "1/batch", int(h.Batches))
	res.layer("engine.ring_share", per(float64(h.RingEvents), float64(h.RemoteRecvs)), "ratio", int(h.RemoteRecvs))
	res.layer("engine.ring_spills_per_kframe", 1e3*per(float64(h.RingSpills), float64(h.RemoteRecvs)), "1/kframe", int(h.RemoteRecvs))

	frames := float64(t.FramesWritten)
	res.layer("transport.frames_per_commit", per(frames, commits), "1/commit", n)
	res.layer("transport.frames_per_flush", per(frames, float64(t.Flushes)), "1/flush", int(t.Flushes))
	res.layer("transport.vector_flush_share", per(float64(t.VectorFlushes), float64(t.Flushes)), "ratio", int(t.Flushes))
	res.layer("transport.acks_per_frame", per(float64(t.AcksSent), frames), "1/frame", int(frames))
	res.layer("transport.resequenced_per_kframe", 1e3*per(float64(t.Resequenced), frames), "1/kframe", int(frames))
	res.layer("transport.replayed", float64(t.Replayed), "count", int(frames))
	res.layer("transport.duplicates", float64(t.Duplicates), "count", int(frames))
	res.layer("transport.mailbox_peak", float64(t.MailboxPeak), "count", 1)
	res.layer("transport.write_errors", float64(t.WriteErrors), "count", int(frames))

	decl := float64(k.DeclaredLocal + k.DeclaredRemote)
	res.layer("ddb.probes_per_commit", per(float64(k.ProbesSent), commits), "1/commit", n)
	res.layer("ddb.computations_per_commit", per(float64(k.Computations), commits), "1/commit", n)
	res.layer("ddb.probes_per_declaration", per(float64(k.ProbesSent), decl), "1/decl", int(decl))
	res.layer("ddb.declarations_per_kcommit", 1e3*per(decl, commits), "1/kcommit", n)
	res.layer("ddb.aborts_per_kcommit", 1e3*per(float64(k.Aborts), commits), "1/kcommit", n)
	res.layer("ddb.protocol_errors", float64(k.ProtocolErrors), "count", n)

	res.layer("wal.records_per_commit", per(float64(h.RecordsAppended), commits), "1/commit", n)
	res.layer("wal.bytes_per_commit", per(float64(c.walBytes), commits), "B/commit", n)
	res.layer("wal.syncs_per_s", per(float64(c.walSyncs), float64(wallNs)/1e9), "1/s", int(c.walSyncs))
	res.layer("wal.errors", float64(h.WALErrors), "count", int(h.RecordsAppended))
}

// traceMetrics derives the span figures of a traced leg.
func traceMetrics(res *result, tr *tracer, traced, untraced leg) {
	sends := tr.sorted("engine.send")
	intra := tr.sorted("engine.hop_intra")
	remote := tr.sorted("transport.hop_remote")
	logs := tr.sorted("wal.log_delivery")
	looks := tr.sorted("cluster.lookup")
	res.layer("engine.send_ns", mean(sends), "ns", len(sends))
	res.layer("engine.hop_intra_p50_us", float64(percentile(intra, 0.50))/1e3, "us", len(intra))
	res.layer("transport.hop_remote_p50_us", float64(percentile(remote, 0.50))/1e3, "us", len(remote))
	res.layer("transport.hop_remote_p99_us", float64(percentile(remote, 0.99))/1e3, "us", len(remote))
	res.layer("wal.log_delivery_p50_ns", float64(percentile(logs, 0.50)), "ns", len(logs))
	res.layer("wal.log_delivery_p99_us", float64(percentile(logs, 0.99))/1e3, "us", len(logs))
	busy := 0.0
	if traced.wallNs > 0 {
		busy = float64(sum(logs)) / (float64(traced.wallNs) * clusterHosts)
	}
	res.layer("wal.busy_share", busy, "ratio", len(logs))
	perFrame := 0.0
	if f := traced.counters.tcp.FramesWritten; f > 0 {
		perFrame = float64(len(looks)) / float64(f)
	}
	res.layer("cluster.lookups_per_frame", perFrame, "1/frame", len(looks))
	res.layer("cluster.lookup_ns", mean(looks), "ns", len(looks))
	res.layer("driver.unattributed_share", tr.unattributedShare(), "ratio", tr.count("txn"))
	overhead := 0.0
	if untraced.commitsPerS > 0 {
		overhead = 1 - traced.commitsPerS/untraced.commitsPerS
	}
	res.layer("trace.overhead_share", overhead, "ratio", 2)
}
