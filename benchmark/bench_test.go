package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// scripts renders the generator's first n transactions as bytes.
func scripts(seed int64, mix txnMix, n int) []byte {
	g := newGenerator(seed, mix)
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		home, steps := g.next()
		fmt.Fprintf(&b, "%d:", home)
		for _, s := range steps {
			fmt.Fprintf(&b, " %d/%d", s.Resource, s.Mode)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestGeneratorSeeded(t *testing.T) {
	for _, mix := range []txnMix{uniformMix, contendedMix} {
		a, b, c := scripts(7, mix, 500), scripts(7, mix, 500), scripts(8, mix, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("keys=%d: the same seed produced different scripts", mix.keys)
		}
		if bytes.Equal(a, c) {
			t.Errorf("keys=%d: seeds 7 and 8 produced identical scripts", mix.keys)
		}
	}
	g := newGenerator(1, contendedMix)
	for i := 0; i < 2000; i++ {
		home, steps := g.next()
		if home < 0 || home >= numSites || len(steps) < contendedMix.minLocks || len(steps) > contendedMix.maxLocks {
			t.Fatalf("txn %d: home %d, %d locks", i, home, len(steps))
		}
		seen := map[id.Resource]bool{}
		for _, s := range steps {
			if seen[s.Resource] || int64(s.Resource) >= contendedMix.keys {
				t.Fatalf("txn %d: bad or repeated key in %v", i, steps)
			}
			seen[s.Resource] = true
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.05, 1}, {1, 10}} {
		if got := percentile(ten, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int64{4, 8}, 0.5); got != 4 {
		t.Errorf("percentile({4,8}, 0.5) = %d, want 4", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

func TestWindowRates(t *testing.T) {
	// Edges at 0, 2, 4, 4 (a stalled catch-up edge) and 6 s.
	snaps := []snap{
		{wallNs: 0, cpuNs: 0, commits: 0},
		{wallNs: 2e9, cpuNs: 1e9, commits: 10000},
		{wallNs: 4e9, cpuNs: 3e9, commits: 30000},
		{wallNs: 4e9, cpuNs: 3e9, commits: 30000},
		{wallNs: 6e9, cpuNs: 3.5e9, commits: 35000},
	}
	perSec, cpuUs := windowRates(snaps)
	if want := []float64{5000, 10000, 2500}; !reflect.DeepEqual(perSec, want) {
		t.Errorf("commits/s per window = %v, want %v", perSec, want)
	}
	if want := []float64{100, 100, 100}; !reflect.DeepEqual(cpuUs, want) {
		t.Errorf("cpu us/commit per window = %v, want %v", cpuUs, want)
	}
	if got := median(perSec); got != 5000 {
		t.Errorf("median window = %v, want 5000", got)
	}
}

// TestHopPairer interleaves sends and deliveries of two ordered pairs:
// each delivery must close the oldest open send of its own pair.
func TestHopPairer(t *testing.T) {
	tr := newTracer()
	for s := range tr.hops.place {
		tr.hops.place[s] = transport.NodeID(1 + s%2) // even sites on host 1, odd on host 2
	}
	acquire := func(txn id.Txn) msg.Message { return msg.CtrlAcquire{Txn: txn} }
	tr.hops.OnSend(0, 2, acquire(10))  // intra (both on host 1)
	tr.hops.OnSend(0, 1, acquire(11))  // remote
	tr.hops.OnSend(0, 2, acquire(12))  // intra, second of its pair
	tr.hops.OnSend(-1, 0, acquire(99)) // control-plane id: ignored
	tr.hops.OnDeliver(0, 1, &msg.CtrlAcquire{Txn: 11})
	tr.hops.OnDeliver(0, 2, acquire(10))
	tr.hops.OnDeliver(0, 2, acquire(12))
	tr.hops.OnDeliver(0, 2, acquire(13)) // no open send: dropped

	var got []string
	for _, s := range tr.spans {
		got = append(got, fmt.Sprintf("%s/%d", s.Name, s.Txn))
		if s.End < s.Start {
			t.Errorf("span %v ends before it starts", s)
		}
	}
	want := []string{"transport.hop_remote/11", "engine.hop_intra/10", "engine.hop_intra/12"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hop spans = %v, want %v", got, want)
	}
	// FIFO within the pair: txn 10 was sent before txn 12.
	if tr.spans[1].Start > tr.spans[2].Start {
		t.Errorf("pair (0,2) matched out of order: %v then %v", tr.spans[1], tr.spans[2])
	}
}

func TestUnattributedShare(t *testing.T) {
	tr := newTracer()
	tr.add(span{Name: "txn", Txn: 5, Root: true, Start: 100, End: 200})
	tr.add(span{Name: "driver.submit", Txn: 5, Start: 100, End: 120})
	tr.add(span{Name: "transport.hop_remote", Txn: 5, Start: 110, End: 150}) // overlaps the submit
	tr.add(span{Name: "transport.hop_remote", Txn: 5, Start: 180, End: 260}) // runs past the root
	tr.add(span{Name: "cluster.lookup", Txn: 0, Start: 150, End: 180})       // not this transaction's
	// Covered: [100,150] and [180,200] = 70 of 100.
	if got := tr.unattributedShare(); got < 0.2999 || got > 0.3001 {
		t.Errorf("unattributed share = %v, want 0.30", got)
	}
}

func TestCheckDeclarations(t *testing.T) {
	a := func(txn, site int) id.Agent { return id.Agent{Txn: id.Txn(txn), Site: id.Site(site)} }
	e := func(from, to id.Agent) id.AgentEdge { return id.AgentEdge{From: from, To: to} }
	edges := []id.AgentEdge{
		e(a(1, 0), a(2, 0)), e(a(2, 0), a(2, 1)), e(a(2, 1), a(1, 1)), e(a(1, 1), a(1, 0)), // cycle A
		e(a(3, 2), a(4, 2)), e(a(4, 2), a(3, 2)), // cycle B
		e(a(5, 3), a(1, 0)), // waits on cycle A, on no cycle itself
	}
	if f, u := checkDeclarations(edges, []id.Agent{a(1, 0), a(3, 2)}); f != 0 || u != 0 {
		t.Errorf("both cycles declared: false=%d uncovered=%d, want 0 0", f, u)
	}
	if f, u := checkDeclarations(edges, []id.Agent{a(2, 1), a(5, 3)}); f != 1 || u != 1 {
		t.Errorf("bystander declared, cycle B missed: false=%d uncovered=%d, want 1 1", f, u)
	}
}

func TestFlags(t *testing.T) {
	for _, c := range []struct {
		args  []string
		trace bool
	}{
		{[]string{"--workload", "host-local", "--seed", "3", "--seconds", "21", "--trace", "1"}, true},
		{[]string{"--workload", "host-local", "--trace", "0"}, false},
		{[]string{"-trace"}, true},
		{[]string{"-trace", "-quick"}, true},
		{nil, false},
	} {
		o, err := parseFlags(c.args, &bytes.Buffer{})
		if err != nil || o.trace != c.trace {
			t.Errorf("parseFlags(%v): trace=%v err=%v, want trace=%v", c.args, o.trace, err, c.trace)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Errorf("unknown workload exited 0")
	}
	for _, w := range workloads {
		if !strings.Contains(stderr.String(), w.name) {
			t.Errorf("unknown-workload error %q does not list %s", stderr.String(), w.name)
		}
	}
}

// benchmarkJSON is BENCHMARK.json as committed at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness pins the committed contract file to
// the harness's own tables: a workload, metric, unit, direction or bound
// changed in one place only fails here.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var txn []string
	for _, w := range workloads {
		if !w.storm {
			txn = append(txn, w.name)
		}
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, txn) {
		t.Errorf("BENCHMARK.json workloads %v, harness transaction workloads %v", listed, txn)
	}
	defs := map[string]metricDef{}
	for _, m := range endToEnd {
		defs[m.name] = m
	}
	var names []string
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
		d := defs[m.Name]
		better := "lower"
		if d.higher {
			better = "higher"
		}
		if d.unit != m.Unit || better != m.Better || d.bound != m.Bound {
			t.Errorf("%s: BENCHMARK.json says %s/%s/%v, harness %s/%s/%v", m.Name, m.Unit, m.Better, m.Bound, d.unit, better, d.bound)
		}
	}
	if !reflect.DeepEqual(names, contractEndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", names, contractEndToEnd)
	}
}

// lastLine decodes the contract object a single-workload run ends with.
func lastLine(t *testing.T, out string) (correct bool, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var obj struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if obj.Attempted < 1 || obj.Failed != 0 {
		t.Errorf("attempted=%d failed=%d", obj.Attempted, obj.Failed)
	}
	return obj.Correct, obj.Metrics
}

// TestQuickSmoke runs the 3-host cluster with the WAL on for 500
// transactions, untraced and traced, and demands exactly the metrics
// BENCHMARK.json lists: each printed once in the report, each present in
// the result object, nothing extra.
func TestQuickSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	out := t.TempDir()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-workload", "cluster-uniform", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("untraced run exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	correct, metrics := lastLine(t, stdout.String())
	if !correct || len(metrics) != len(b.EndToEnd) {
		t.Errorf("untraced: correct=%v, %d metrics, want %d", correct, len(metrics), len(b.EndToEnd))
	}
	for _, m := range b.EndToEnd {
		got, ok := metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("untraced: %s = %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
		}
		if n := strings.Count(stdout.String(), "\n  "+m.Name+" "); n != 1 {
			t.Errorf("untraced: %s printed %d times in the report, want once", m.Name, n)
		}
	}

	stdout.Reset()
	if code := run([]string{"-quick", "-workload", "cluster-uniform", "-out", out, "--trace", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("traced run exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	correct, metrics = lastLine(t, stdout.String())
	if !correct || len(metrics) != len(b.PerLayer) {
		t.Errorf("traced: correct=%v, %d metrics, want %d", correct, len(metrics), len(b.PerLayer))
	}
	for _, m := range b.PerLayer {
		got, ok := metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("traced: %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
		if n := strings.Count(stdout.String(), "\n  "+m.Name+" "); n != 1 {
			t.Errorf("traced: %s printed %d times in the report, want once", m.Name, n)
		}
	}
	if _, err := os.Stat(out + "/trace-cluster-uniform.json"); err != nil {
		t.Errorf("traced run left no span file: %v", err)
	}
	// Each layer busy in one workload, idle in another.
	if v := metrics["transport.frames_per_commit"].Value; v < 1 {
		t.Errorf("cluster-uniform: transport.frames_per_commit = %v, want wire traffic", v)
	}
	if v := metrics["wal.records_per_commit"].Value; v < 1 {
		t.Errorf("cluster-uniform: wal.records_per_commit = %v, want journaled frames", v)
	}
}

// TestQuickOtherWorkloads covers the rows the cluster smoke does not:
// host-local must leave transport and WAL idle, storm-restore must pass
// its delivery and restore checks.
func TestQuickOtherWorkloads(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-workload", "host-local", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("host-local exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	for _, idle := range []string{"transport.frames_per_commit", "wal.records_per_commit"} {
		if !strings.Contains(stdout.String(), fmt.Sprintf("  %-34s %14.4f", idle, 0.0)) {
			t.Errorf("host-local: %s is not reported as 0\n%s", idle, stdout.String())
		}
	}
	stdout.Reset()
	if code := run([]string{"-quick", "-workload", "storm-restore", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("storm-restore exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	for _, name := range []string{"storm_kframes_per_s", "restore_kframes_per_s", "setup_s", "peak_rss_mb", "failed_share"} {
		if n := strings.Count(stdout.String(), "\n  "+name+" "); n != 1 {
			t.Errorf("storm-restore: %s printed %d times, want once", name, n)
		}
	}
	if entries, _ := os.ReadDir(out); len(entries) != 0 {
		t.Errorf("WAL scratch left behind in %s: %v", out, entries)
	}
}
