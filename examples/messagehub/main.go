// Messagehub: the communication-model (OR-request) extension on the
// in-process concurrent runtime. Worker processes exchange messages
// through named peers; a blocked worker resumes when ANY peer it waits
// on writes to it. A misconfigured pipeline makes a set of workers wait
// on each other with no producer outside the set — a communication
// deadlock, which the diffusing-computation detector finds even though
// each worker would be satisfied by any one of several peers.
//
//	go run ./examples/messagehub
package main

import (
	"fmt"
	"log"
	"time"

	deadlock "repro"
)

func main() {
	net := deadlock.NewLiveNetwork()
	defer net.Close()

	// Pipeline: ingest(4) feeds parse(0); parse waits on {ingest OR
	// cache(1)}; cache waits on {parse OR index(2)}; index waits on
	// {cache OR merge(3)}; merge waits on {index}. If ingest never
	// produces, workers 0..3 wait only on each other: a communication
	// deadlock. Worker 4 (ingest) is stalled on an empty source but is
	// "active" in protocol terms — it just never sends.
	detected := make(chan deadlock.ProcID, 5)
	mk := func(i int) *deadlock.CommProcess {
		pid := deadlock.ProcID(i)
		p, err := deadlock.NewCommProcess(deadlock.CommConfig{
			ID:        pid,
			Transport: net,
			OnDeadlock: func(seq uint64) {
				fmt.Printf("worker %v: communication deadlock confirmed (computation %d)\n", pid, seq)
				detected <- pid
			},
			OnUnblocked: func(from deadlock.ProcID) {
				fmt.Printf("worker %v: released by %v\n", pid, from)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	workers := make([]*deadlock.CommProcess, 5)
	for i := range workers {
		workers[i] = mk(i)
	}

	// The broken wiring: nobody in {0,1,2,3} depends on ingest (4).
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(workers[0].Block(1))    // parse waits on cache
	must(workers[1].Block(0, 2)) // cache waits on parse OR index
	must(workers[2].Block(1, 3)) // index waits on cache OR merge
	must(workers[3].Block(2))    // merge waits on index

	// Each blocked worker starts its own diffusing computation.
	for i := 0; i < 4; i++ {
		workers[i].StartDetection()
	}

	count := 0
	for count < 4 {
		select {
		case <-detected:
			count++
		case <-time.After(10 * time.Second):
			log.Fatal("detection timed out")
		}
	}
	fmt.Println("all four workers in the cycle know they are deadlocked")

	// Contrast: rewire so cache also waits on ingest, then let ingest
	// produce — the OR-wait dissolves and no one declares.
	net2 := deadlock.NewLiveNetwork()
	defer net2.Close()
	quiet := make([]*deadlock.CommProcess, 5)
	for i := range quiet {
		pid := deadlock.ProcID(i)
		p, err := deadlock.NewCommProcess(deadlock.CommConfig{
			ID:        pid,
			Transport: net2,
			OnDeadlock: func(uint64) {
				log.Fatalf("worker %v declared in the healthy wiring", pid)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		quiet[i] = p
	}
	must(quiet[0].Block(1))
	must(quiet[1].Block(0, 2, 4)) // cache can also hear from ingest
	must(quiet[2].Block(1, 3))
	must(quiet[3].Block(2))
	for i := 0; i < 4; i++ {
		quiet[i].StartDetection()
	}
	time.Sleep(100 * time.Millisecond) // let queries die at the active ingest
	quiet[4].SendWork(1)               // ingest produces
	time.Sleep(100 * time.Millisecond)
	if quiet[1].Blocked() {
		log.Fatal("cache was not released")
	}
	fmt.Println("healthy wiring: no declaration, cache released by ingest")
}
