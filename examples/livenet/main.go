// Livenet: the probe computation over real TCP sockets. Four processes,
// each its own host with one loopback listener, exchange binary-framed
// requests and probes over one TCP connection per ordered host pair,
// form a request cycle, and the Chandy–Misra algorithm detects it —
// demonstrating that the protocol participants run unchanged over a
// real network stack (the transports share one FIFO-per-pair contract).
//
// The run also exercises the transport's fault tolerance: transport
// errors are reported instead of panicking, the delivery stream is
// audited by both FIFO checkers (send/deliver pairing and
// receiver-side sequence numbers), and the connection counters are
// printed at exit.
//
//	go run ./examples/livenet
package main

import (
	"fmt"
	"log"
	"time"

	deadlock "repro"
)

const n = 4

func main() {
	net := deadlock.NewTCPNetworkWithOptions(deadlock.TCPOptions{
		OnError: func(err error) { log.Println("transport:", err) },
	})
	defer net.Close()

	checker := deadlock.NewFIFOChecker(func(s string) { log.Fatalln("FIFO violation:", s) })
	seqChecker := deadlock.NewLinkFIFOChecker(func(s string) { log.Fatalln("sequence violation:", s) })
	net.Observe(checker)
	net.Observe(seqChecker)

	detected := make(chan deadlock.Tag, 1)
	procs := make([]*deadlock.Process, n)
	for i := 0; i < n; i++ {
		cfg := deadlock.ProcessConfig{
			ID:        deadlock.ProcID(i),
			Transport: net,
			Policy:    deadlock.InitiateManually,
		}
		if i == 0 {
			cfg.OnDeadlock = func(tag deadlock.Tag) {
				select {
				case detected <- tag:
				default:
				}
			}
		}
		p, err := deadlock.NewProcess(cfg)
		if err != nil {
			log.Fatal(err)
		}
		procs[i] = p
		fmt.Printf("process %d listening on %s\n", i, net.HostAddr(deadlock.NodeID(i)))
	}

	// Form the request cycle over TCP.
	for i := 0; i < n; i++ {
		if err := procs[i].Request(deadlock.ProcID((i + 1) % n)); err != nil {
			log.Fatal(err)
		}
	}

	// Initiate one probe computation from p0. TCP preserves FIFO per
	// connection, so the probe trails the requests (axiom P1) and no
	// settling delay is needed.
	start := time.Now()
	if _, ok := procs[0].StartProbe(); !ok {
		log.Fatal("initiator not blocked")
	}
	select {
	case tag := <-detected:
		fmt.Printf("deadlock detected by computation %v over TCP in %v\n", tag, time.Since(start))
	case <-time.After(10 * time.Second):
		log.Fatal("detection timed out")
	}
	for _, p := range procs {
		st := p.Stats()
		fmt.Printf("process %v: probes sent=%d meaningful=%d\n", p.ID(), st.ProbesSent, st.ProbesMeaningful)
	}
	fmt.Printf("delivery audit: %d sequenced frames, %d FIFO violations, %d sequence violations\n",
		seqChecker.Delivered(), checker.Violations(), seqChecker.Violations())
	fmt.Print(deadlock.TCPStatsTable(net.Stats()))
}
