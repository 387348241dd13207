// Command benchmark is the repository's end-to-end benchmark: it
// assembles the real stack in one process — three gossip-joined hosts
// over loopback TCP with the WAL on, one ddb controller per site — from
// the layers' public functions, drives it with a seeded closed-loop
// transaction generator, checks the outputs, and prints every metric by
// name. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	aa       bool
	quick    bool
	outDir   string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the transaction generator; feeds nothing else")
	fs.Float64Var(&o.seconds, "seconds", 21, "timed seconds per transaction workload: solo 1+6 and sat 2+6x2 out of 21")
	fs.BoolVar(&o.trace, "trace", false, "add the traced run, the cost ladder and the per-layer table")
	fs.BoolVar(&o.aa, "aa", false, "run the set twice and fail if any end-to-end metric differs by more than its bound")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: phases end after a few hundred transactions")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for WAL scratch and trace files")
	// The driver passes "--trace 0|1"; flag's booleans only take "-trace=0".
	joined := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		joined = append(joined, a)
	}
	if err := fs.Parse(joined); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "benchmark:", err)
		}
		return 2
	}
	selected := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []workload{w}
	}
	cfg := runConfig{seed: o.seed, plan: planFor(o.seconds, o.trace), traced: o.trace, outDir: o.outDir}
	if o.quick {
		cfg.plan = quickPlan()
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printHeader(stdout, cfg)

	if o.aa {
		return runAA(selected, cfg, stdout, stderr)
	}
	results, err := runSet(selected, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, r := range results {
		if r.failed > 0 {
			code = 1
		}
	}
	if len(results) == 1 {
		printContractLine(stdout, results[0], o.trace)
	}
	return code
}

func printHeader(w io.Writer, cfg runConfig) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, cfg.seed)
	fmt.Fprintf(w, "phases: %v; closed loop, 1 then %d clients; %d hosts x %d shards, %d sites, T=%v\n",
		cfg.plan, satClients, clusterHosts, hostShards, numSites, delayT)
	fmt.Fprintln(w, "environment: loopback, no injected delay, sandbox disk fsync — latency is processor and kernel time, not a network's or a device's")
}

// runSet runs the selected workloads once, printing each report, and —
// in a traced run — the cost ladder, which is then priced against every
// transaction workload's counts.
func runSet(selected []workload, cfg runConfig, stdout io.Writer) ([]*result, error) {
	var lad ladder
	if cfg.traced {
		var err error
		if lad, err = runLadder(cfg.outDir, cfg.plan.ladderScale); err != nil {
			return nil, err
		}
	}
	var results []*result
	for _, w := range selected {
		resetPeakRSS()
		var res *result
		var err error
		if w.storm {
			res, err = runStorm(w, cfg)
		} else {
			res, err = runTxn(w, cfg)
		}
		if err != nil {
			return nil, err
		}
		if lad != nil && !w.storm {
			for _, name := range ladderNames {
				v := lad[name]
				res.layer(name, v.v, v.unit, v.n)
			}
			attribute(res, lad, w.fsync)
		}
		printReport(stdout, w, res)
		results = append(results, res)
	}
	return results, nil
}

func printReport(w io.Writer, wl workload, res *result) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", wl.name, wl.why)
	fmt.Fprintln(w, "end-to-end:")
	for _, m := range endToEnd {
		v, ok := res.values[m.name]
		if !ok {
			continue // the workload does not produce this metric
		}
		dir, bound := "lower is better", fmt.Sprintf("bound %.0f%%", 100*m.bound)
		if m.higher {
			dir = "higher is better"
		}
		if m.bound == 0 {
			bound = "bound 0 absolute"
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-10s n=%-8d %s, %s\n", m.name, v.v, v.unit, v.n, bound, dir)
	}
	if len(res.order) > 0 {
		fmt.Fprintln(w, "per-layer:")
	}
	for _, name := range res.order {
		v := res.values[name]
		fmt.Fprintf(w, "  %-34s %14.4f %-10s n=%d\n", name, v.v, v.unit, v.n)
	}
	if cpu, ok := res.values["ladder.attributed_us_per_commit"]; ok {
		fmt.Fprintf(w, "ladder: %.1f us/commit attributed of %.1f us/commit measured; unattributed share %.2f\n",
			cpu.v, res.values["cpu_us_per_commit"].v, res.values["ladder.unattributed_share"].v)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "checks: attempted=%d failed=%d\n", res.attempted, res.failed)
}

// printContractLine prints the one-object summary the driver reads from
// the last line: the end-to-end metrics every transaction workload
// produces, or with -trace every per-layer metric.
func printContractLine(w io.Writer, res *result, traced bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := contractEndToEnd
	if traced {
		names = res.order
	}
	metrics := map[string]metric{}
	for _, name := range names {
		if v, ok := res.values[name]; ok {
			metrics[name] = metric{v.v, v.unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// runAA runs the set twice in one invocation and compares every gated
// metric of every producing workload against its own bound. The two sets
// are the same code, so a difference either way is disagreement.
func runAA(selected []workload, cfg runConfig, stdout, stderr io.Writer) int {
	var sets [2][]*result
	for i := range sets {
		fmt.Fprintf(stdout, "\n#### A/A set %d ####\n", i+1)
		rs, err := runSet(selected, cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		sets[i] = rs
	}
	fmt.Fprintf(stdout, "\n#### A/A comparison (second against first) ####\n")
	fmt.Fprintf(stdout, "%-18s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse_by", "bound")
	code := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		if a.failed+b.failed > 0 {
			code = 1
		}
		for _, m := range endToEnd {
			va, ok := a.values[m.name]
			if !ok {
				continue
			}
			vb := b.values[m.name]
			worse := worseBy(m, va.v, vb.v)
			verdict := "ok"
			if math.Abs(worse) > m.bound {
				verdict = "EXCEEDS"
				code = 1
			}
			fmt.Fprintf(stdout, "%-18s %-24s %14.4f %14.4f %8.1f%% %6.0f%% %s\n",
				a.workload, m.name, va.v, vb.v, 100*worse, 100*m.bound, verdict)
		}
	}
	return code
}

// worseBy is how much worse second is than first, as a share of first
// (absolute for failed_share, whose bound is absolute); negative when
// second is better.
func worseBy(m metricDef, first, second float64) float64 {
	if m.bound == 0 {
		return second - first
	}
	if first == 0 {
		return 0
	}
	if m.higher {
		return (first - second) / first
	}
	return (second - first) / first
}
