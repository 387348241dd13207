package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer lets the test poll a node's output while run() is still
// writing to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func waitFor(t *testing.T, buf *syncBuffer, substr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !strings.Contains(buf.String(), substr) {
		if time.Now().After(deadline) {
			t.Fatalf("output never contained %q:\n%s", substr, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestThreeNodesDetectOverTCP launches three cmhnode instances in one
// process (each with its own TCP transport and listener) and checks the
// initiator detects the cross-node cycle.
func TestThreeNodesDetectOverTCP(t *testing.T) {
	addr := func(port string) string { return "127.0.0.1:" + port }
	// Fixed high ports; if occupied the run errors and the test skips
	// rather than flaking.
	p0, p1, p2 := addr("17150"), addr("17151"), addr("17152")

	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, 3)
	errs := make([]error, 3)
	runNode := func(i int, args []string) {
		defer wg.Done()
		errs[i] = run(args, &outs[i])
	}
	common := []string{"-timeout", "10s", "-settle", "300ms"}
	wg.Add(3)
	go runNode(0, append([]string{"-id", "0", "-listen", p0, "-peer", "1=" + p1 + ",2=" + p2, "-request", "1", "-initiate"}, common...))
	go runNode(1, append([]string{"-id", "1", "-listen", p1, "-peer", "2=" + p2 + ",0=" + p0, "-request", "2"}, common...))
	go runNode(2, append([]string{"-id", "2", "-listen", p2, "-peer", "0=" + p0 + ",1=" + p1, "-request", "0"}, common...))

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nodes did not finish")
	}
	for i, err := range errs {
		if err != nil {
			if strings.Contains(err.Error(), "address already in use") {
				t.Skipf("port conflict: %v", err)
			}
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if !strings.Contains(outs[0].String(), "DEADLOCK detected") {
		t.Fatalf("initiator output missing detection:\n%s", outs[0].String())
	}
}

func TestRunRejectsBadPeers(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-peer", "garbage", "-settle", "1ms", "-timeout", "1ms"}, &out); err == nil {
		t.Fatal("bad -peer accepted")
	}
	if err := run([]string{"-peer", "x=127.0.0.1:1", "-settle", "1ms", "-timeout", "1ms"}, &out); err == nil {
		t.Fatal("non-numeric peer id accepted")
	}
	if err := run([]string{"-request", "zz", "-settle", "1ms", "-timeout", "1ms"}, &out); err == nil {
		t.Fatal("bad -request accepted")
	}
	if err := run([]string{"-codec", "msgpack", "-settle", "1ms", "-timeout", "1ms"}, &out); err == nil {
		t.Fatal("unknown -codec accepted")
	}
}

// TestRunShutsDownGracefullyOnSIGINT sends the process a real SIGINT
// mid-run and checks the node drains its write buffers, prints the
// final state and its transport counters, and returns cleanly instead
// of dying on the default signal disposition.
func TestRunShutsDownGracefullyOnSIGINT(t *testing.T) {
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-id", "0", "-settle", "1ms", "-timeout", "30s",
		}, &out)
	}()
	// Only signal once the node is inside its wait loop (listening is
	// printed just before), so the handler is installed.
	waitFor(t, &out, "listening", 5*time.Second)
	time.Sleep(50 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("node did not shut down on SIGINT:\n%s", out.String())
	}
	for _, want := range []string{"draining and shutting down", "final state blocked=false", "tcp transport"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("shutdown output missing %q:\n%s", want, out.String())
		}
	}
}

// TestLeaseAbortsWaitWhenPeerDies runs two nodes with the failure
// detector armed: node 0 waits on node 1, node 1 exits (closing its
// transport) long before node 0's timeout, and node 0 must convert the
// dead wait into a typed WaitAborted instead of hanging on it.
func TestLeaseAbortsWaitWhenPeerDies(t *testing.T) {
	p0, p1 := "127.0.0.1:17160", "127.0.0.1:17161"
	var out0, out1 syncBuffer
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = run([]string{
			"-id", "0", "-listen", p0, "-peer", "1=" + p1, "-request", "1",
			"-settle", "300ms", "-timeout", "8s",
			"-lease-interval", "50ms", "-lease-misses", "3",
			"-retry-base", "5ms", "-retry-max", "50ms", "-dial-timeout", "1s",
		}, &out0)
	}()
	go func() {
		defer wg.Done()
		// Node 1 answers nothing and exits at its own short timeout —
		// from node 0's side this is a peer crash.
		errs[1] = run([]string{
			"-id", "1", "-listen", p1, "-peer", "0=" + p0,
			"-settle", "1ms", "-timeout", "1s",
		}, &out1)
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nodes did not finish")
	}
	for i, err := range errs {
		if err != nil {
			if strings.Contains(err.Error(), "address already in use") {
				t.Skipf("port conflict: %v", err)
			}
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if !strings.Contains(out0.String(), "ABORTED (peer presumed down)") {
		t.Fatalf("node 0 never aborted the dead wait:\n%s", out0.String())
	}
	if !strings.Contains(out0.String(), "waits aborted=1") {
		t.Fatalf("node 0's final report missing the abort count:\n%s", out0.String())
	}
}

// TestRunSurvivesUnreachablePeer pins the no-panic contract: a node
// whose peer never comes up keeps retrying in the background, reports
// no verdict at its timeout and exits cleanly instead of crashing.
func TestRunSurvivesUnreachablePeer(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-id", "0", "-peer", "1=127.0.0.1:1", "-request", "1",
		"-settle", "1ms", "-timeout", "500ms",
		"-dial-timeout", "50ms", "-retry-base", "5ms", "-retry-max", "20ms",
		"-net-stats",
	}, &out)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !strings.Contains(out.String(), "no verdict") {
		t.Fatalf("missing timeout report:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "dial retries") {
		t.Fatalf("missing -net-stats table:\n%s", out.String())
	}
}

// TestHostModeDurableRestart runs host mode twice against the same
// -wal-dir: the first run wires the request ring, drains, and writes
// its final checkpoint; the second must resume from that checkpoint
// (ring restored, not re-wired) and detect the cycle it inherited.
func TestHostModeDurableRestart(t *testing.T) {
	dir := t.TempDir()
	var first bytes.Buffer
	if err := run([]string{
		"-procs", "5", "-shards", "2", "-wal-dir", dir, "-checkpoint-interval", "0",
	}, &first); err != nil {
		t.Fatalf("first run: %v\n%s", err, first.String())
	}
	for _, want := range []string{"resumed=false", "request ring of 5 processes wired", "final checkpoint written", "checkpoints taken"} {
		if !strings.Contains(first.String(), want) {
			t.Fatalf("first run output missing %q:\n%s", want, first.String())
		}
	}

	var second bytes.Buffer
	if err := run([]string{
		"-procs", "5", "-shards", "2", "-wal-dir", dir, "-checkpoint-interval", "0",
		"-initiate", "-timeout", "15s",
	}, &second); err != nil {
		t.Fatalf("second run: %v\n%s", err, second.String())
	}
	for _, want := range []string{"resumed=true", "request ring restored from checkpoint", "DEADLOCK detected"} {
		if !strings.Contains(second.String(), want) {
			t.Fatalf("second run output missing %q:\n%s", want, second.String())
		}
	}

	// Third run: the second run's final checkpoint carries the verdict
	// itself. Re-initiating is a no-op for an already-declared process,
	// so the host must report the restored declaration — not hang to
	// the timeout waiting for an OnDeadlock that can never fire again.
	var third bytes.Buffer
	if err := run([]string{
		"-procs", "5", "-shards", "2", "-wal-dir", dir, "-checkpoint-interval", "0",
		"-initiate", "-timeout", "15s",
	}, &third); err != nil {
		t.Fatalf("third run: %v\n%s", err, third.String())
	}
	if !strings.Contains(third.String(), "DEADLOCK (restored): declared pre-crash") {
		t.Fatalf("third run did not surface the restored verdict:\n%s", third.String())
	}
}

// TestWALDirRequiresHostMode pins the flag pairing.
func TestWALDirRequiresHostMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-wal-dir", t.TempDir()}, &out)
	if err == nil || !strings.Contains(err.Error(), "host mode") {
		t.Fatalf("single-proc -wal-dir accepted: %v", err)
	}
}

// TestClusterModeDetectsAcrossHosts boots a three-host cluster in one
// process: a seed and two joiners (one using host=addr, one host@addr),
// six global processes placed by the consistent-hash ring, each host
// wiring its share of the request ring — no -peer, no per-pair flags.
// The host owning process 1 initiates and must detect the cross-host
// cycle; every host must return cleanly.
func TestClusterModeDetectsAcrossHosts(t *testing.T) {
	var seedOut syncBuffer
	var wg sync.WaitGroup
	errs := make([]error, 3)
	common := []string{
		"-procs", "6", "-shards", "2", "-cluster-size", "3",
		"-gossip-interval", "10ms", "-settle", "250ms",
		"-initiate", "-timeout", "15s",
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = run(append([]string{"-id", "0", "-seed", "-listen", "127.0.0.1:0"}, common...), &seedOut)
	}()
	waitFor(t, &seedOut, "listening on", 5*time.Second)
	m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(seedOut.String())
	if m == nil {
		t.Fatalf("seed printed no address:\n%s", seedOut.String())
	}
	seedAddr := m[1]

	joinOuts := make([]syncBuffer, 2)
	for i, join := range []string{"1=" + seedAddr, "1@" + seedAddr} {
		wg.Add(1)
		go func(i int, join string) {
			defer wg.Done()
			errs[i+1] = run(append([]string{
				"-id", fmt.Sprint(i + 1), "-join", join, "-listen", "127.0.0.1:0",
			}, common...), &joinOuts[i])
		}(i, join)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("cluster hosts did not finish:\nseed:\n%s\njoin1:\n%s\njoin2:\n%s",
			seedOut.String(), joinOuts[0].String(), joinOuts[1].String())
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
	}
	all := seedOut.String() + joinOuts[0].String() + joinOuts[1].String()
	if !strings.Contains(all, "DEADLOCK detected") {
		t.Fatalf("no host detected the cross-host cycle:\n%s", all)
	}
	for i, s := range []string{seedOut.String(), joinOuts[0].String(), joinOuts[1].String()} {
		if !strings.Contains(s, "membership converged: hosts [1 2 3]") {
			t.Fatalf("host %d never converged on the full member map:\n%s", i, s)
		}
		if strings.Contains(s, "no verdict") {
			t.Fatalf("host %d timed out instead of learning the verdict:\n%s", i, all)
		}
	}
}

// TestClusterModeLeavesBeforeCheckpoint pins the shutdown ordering: on
// SIGINT a durable cluster host must gossip its leave tombstone (and
// flush it) BEFORE writing the final checkpoint, so peers observe
// leave-not-crash while the links are still healthy.
func TestClusterModeLeavesBeforeCheckpoint(t *testing.T) {
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-id", "0", "-seed", "-listen", "127.0.0.1:0",
			"-procs", "2", "-shards", "2", "-cluster-size", "1",
			"-gossip-interval", "10ms", "-settle", "20ms",
			"-wal-dir", t.TempDir(), "-timeout", "30s",
		}, &out)
	}()
	waitFor(t, &out, "request-ring edges", 10*time.Second)
	time.Sleep(50 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run failed: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("cluster host did not shut down on SIGINT:\n%s", out.String())
	}
	s := out.String()
	left := strings.Index(s, "left the member map")
	ckpt := strings.Index(s, "final checkpoint written")
	if left < 0 || ckpt < 0 {
		t.Fatalf("shutdown output missing leave or checkpoint markers:\n%s", s)
	}
	if left > ckpt {
		t.Fatalf("final checkpoint written before the leave tombstone (leave@%d, ckpt@%d):\n%s", left, ckpt, s)
	}
}
