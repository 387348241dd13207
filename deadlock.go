// Package deadlock is a production-quality Go implementation of the
// Chandy–Misra distributed resource-deadlock detection algorithm
// ("A Distributed Algorithm for Detecting Resource Deadlocks in
// Distributed Systems", PODC 1982): probe computations over the AND
// (resource) request model, the WFGD deadlocked-set propagation of §5,
// and the Menasce–Muntz distributed-database model of §6 with
// controller-level probe computations.
//
// # Layers
//
// The library has three layers, all exposed here:
//
//   - Protocol participants: Process (basic model, one vertex of the
//     wait-for graph) and Controller (DDB model, one site). They run
//     over any Transport — the in-process concurrent runtime
//     (NewLiveNetwork, a one-shard engine.Host), real TCP sockets
//     (NewTCPNetwork), or the deterministic simulator (NewSimNetwork).
//
//   - Batteries-included deployments: NewSimulation builds an
//     N-process simulated basic-model system with an omniscient
//     oracle, traffic counters and FIFO checking; NewDDB builds a
//     multi-site simulated database with a lock manager per site.
//
//   - The experiment harness (cmd/cmhbench) regenerating every
//     quantitative claim in the paper; see DESIGN.md and
//     EXPERIMENTS.md.
//
// # Quickstart
//
// Build three processes that request each other in a ring and let the
// probe computation find the dark cycle (see examples/quickstart):
//
//	sys, _ := deadlock.NewSimulation(3, deadlock.SimOptions{Seed: 1})
//	p := deadlock.Ring(3)
//	_ = sys.Apply(p)
//	sys.Run(1 << 20)
//	fmt.Println(sys.Detections) // the initiator that declared, and when
package deadlock

import (
	"repro/internal/commdl"
	"repro/internal/core"
	"repro/internal/ddb"
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Identifier and tag types (see the paper's §2 and §3.2).
type (
	// ProcID names a basic-model process / wait-for-graph vertex.
	ProcID = id.Proc
	// SiteID names a DDB site and its controller.
	SiteID = id.Site
	// TxnID names a DDB transaction.
	TxnID = id.Txn
	// ResourceID names a lockable DDB resource.
	ResourceID = id.Resource
	// AgentID names a DDB process (Ti, Sj).
	AgentID = id.Agent
	// Tag identifies a basic-model probe computation (i, n).
	Tag = id.Tag
	// CtrlTag identifies a DDB probe computation (j, n).
	CtrlTag = id.CtrlTag
	// WaitEdge is a directed wait-for edge between processes.
	WaitEdge = id.Edge
)

// Protocol participants and their configuration.
type (
	// Process is one basic-model protocol participant.
	Process = core.Process
	// ProcessConfig configures a Process.
	ProcessConfig = core.Config
	// Controller is one DDB site's protocol participant.
	Controller = ddb.Controller
	// ControllerConfig configures a Controller.
	ControllerConfig = ddb.Config
	// LockStep is one step of a DDB transaction script.
	LockStep = ddb.LockStep
	// TxnSpec describes a transaction for the DDB workload driver.
	TxnSpec = ddb.TxnSpec
)

// Initiation policies for the basic model (§4.2–4.3).
const (
	// InitiateOnBlock starts a probe computation whenever an outgoing
	// edge is added.
	InitiateOnBlock = core.InitiateOnBlock
	// InitiateAfterDelay starts one only for edges alive longer than T.
	InitiateAfterDelay = core.InitiateAfterDelay
	// InitiateManually leaves initiation to StartProbe calls.
	InitiateManually = core.InitiateManually
)

// Transports.
type (
	// Transport routes messages with reliable FIFO delivery per ordered
	// pair — the paper's only environmental assumption.
	Transport = transport.Transport
	// NodeID is an endpoint identity on a transport.
	NodeID = transport.NodeID
	// TCPOptions tunes the TCP transport's dial retry/backoff schedule
	// and receives its error and connection-lifecycle callbacks.
	TCPOptions = transport.TCPOptions
	// TCPStats is a snapshot of the TCP transport's connection and
	// reconnect-protocol counters.
	TCPStats = transport.TCPStats
	// ConnEvent describes one TCP connection-lifecycle event.
	ConnEvent = transport.ConnEvent
	// FIFOChecker audits any transport for per-pair FIFO delivery by
	// pairing sends with deliveries (needs both endpoints in-process).
	FIFOChecker = trace.FIFOChecker
	// LinkFIFOChecker audits the TCP reconnect protocol from the
	// receiver side alone, using wire sequence numbers.
	LinkFIFOChecker = trace.LinkFIFOChecker
	// ConnLog records connection-lifecycle events for inspection.
	ConnLog = trace.ConnLog
)

// NewProcess creates a basic-model protocol participant on a transport.
func NewProcess(cfg ProcessConfig) (*Process, error) { return core.NewProcess(cfg) }

// NewController creates a DDB site controller on a transport.
func NewController(cfg ControllerConfig) (*Controller, error) { return ddb.NewController(cfg) }

// NewLiveNetwork returns the in-process concurrent runtime: a
// self-contained one-shard engine.Host. Every registered process is
// stepped, one message at a time, on the shard's goroutine, and every
// send is a FIFO append to the shard's queue. Callbacks (OnDeadlock,
// OnRequest, …) of delivered steps run on that goroutine too, and may
// call back into any process on the network. Close it when done to stop
// the shard.
func NewLiveNetwork() *engine.Host { return engine.NewHost(engine.Options{}) }

// NewTCPNetwork returns the TCP transport. Each registered node is its
// own host: Register opens its loopback listener, SetPeer records the
// address of a node listening elsewhere, and each ordered pair of nodes
// gets one connection. Close it when done.
func NewTCPNetwork() *transport.TCP { return transport.NewTCP() }

// NewTCPNetworkWithOptions is NewTCPNetwork with explicit retry/backoff
// tuning and error/connection-event callbacks. Peer failures never
// panic: dial and write errors are reported through OnError while the
// affected link retries with exponential backoff, and reconnects replay
// sequence-numbered frames so per-pair FIFO delivery survives dropped
// connections.
func NewTCPNetworkWithOptions(opts TCPOptions) *transport.TCP {
	return transport.NewTCPWithOptions(opts)
}

// NewFIFOChecker returns a transport auditor verifying per-ordered-pair
// FIFO delivery by matching OnSend against OnDeliver. onViolate, if
// non-nil, receives a description of each violation.
func NewFIFOChecker(onViolate func(string)) *FIFOChecker { return trace.NewFIFOChecker(onViolate) }

// NewLinkFIFOChecker returns a receiver-side auditor for the TCP
// transport's sequence-numbered delivery stream: within a sender epoch,
// sequence numbers must be contiguous from 1.
func NewLinkFIFOChecker(onViolate func(string)) *LinkFIFOChecker {
	return trace.NewLinkFIFOChecker(onViolate)
}

// NewConnLog returns a recorder for TCP connection-lifecycle events;
// pass its Add method as TCPOptions.OnConnEvent.
func NewConnLog() *ConnLog { return trace.NewConnLog() }

// TCPStatsTable renders a TCP transport's counters as an aligned table.
func TCPStatsTable(s TCPStats) string { return metrics.TCPStatsTable(s) }

// NewSimNetwork returns a deterministic simulated network on a new
// discrete-event scheduler seeded with seed.
func NewSimNetwork(seed int64, latency transport.Latency) (*sim.Scheduler, *transport.SimNet) {
	sched := sim.New(seed)
	return sched, transport.NewSimNet(sched, latency)
}

// Simulated basic-model deployments.
type (
	// Simulation is an N-process simulated basic-model system with an
	// oracle, counters and FIFO checking attached.
	Simulation = workload.BasicSystem
	// SimOptions configures a Simulation.
	SimOptions = workload.BasicOptions
	// Topology is a request plan applied to a Simulation.
	Topology = workload.Topology
	// Detection records one deadlock declaration in a Simulation.
	Detection = workload.Detection
)

// NewSimulation builds an n-process simulated basic-model system.
func NewSimulation(n int, opts SimOptions) (*Simulation, error) {
	return workload.NewBasicSystem(n, opts)
}

// Ring returns the n-cycle topology (always deadlocks).
func Ring(n int) Topology { return workload.Ring(n) }

// Chain returns the n-path topology (never deadlocks).
func Chain(n int) Topology { return workload.Chain(n) }

// RingWithTails returns a ring with chains of blocked processes leading
// into it — the shape §5's WFGD computation maps out.
func RingWithTails(ringN, tailN int) Topology { return workload.RingWithTails(ringN, tailN) }

// Simulated DDB deployments.
type (
	// DDB is a multi-site simulated distributed database.
	DDB = ddb.Cluster
	// DDBOptions configures a DDB.
	DDBOptions = ddb.ClusterOptions
)

// LockMode distinguishes shared from exclusive DDB locks.
type LockMode = msg.LockMode

// Lock modes for DDB transaction scripts.
const (
	// LockRead is a shared lock.
	LockRead = msg.LockRead
	// LockWrite is an exclusive lock.
	LockWrite = msg.LockWrite
)

// NewDDB builds a simulated distributed database per §6: one controller
// per site, resources assigned round-robin to sites.
func NewDDB(opts DDBOptions) (*DDB, error) { return ddb.NewCluster(opts) }

// Communication-model (OR-request) extension: the companion algorithm
// the paper cites as [1], for systems where a blocked process resumes
// when ANY member of its dependent set responds.
type (
	// CommProcess is one vertex of the communication model.
	CommProcess = commdl.Process
	// CommConfig configures a CommProcess.
	CommConfig = commdl.Config
	// CommOracle answers ground-truth queries over CommProcesses.
	CommOracle = commdl.Oracle
)

// NewCommProcess creates a communication-model process on a transport.
func NewCommProcess(cfg CommConfig) (*CommProcess, error) { return commdl.New(cfg) }

// NewCommOracle builds the omniscient OR-model oracle (tests and
// experiments only).
func NewCommOracle(procs []*CommProcess) *CommOracle { return commdl.NewOracle(procs) }
