package cluster

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/msg"
	"repro/internal/transport"
)

// The control-plane wire format. Every cluster message is the Payload
// of one msg.Cluster frame; the inner encoding here is the same
// decode-or-reject discipline as the §9 codec and the checkpoint
// snapshots: a version byte, a kind discriminator, flat little-endian
// fields through engine.SnapWriter/SnapReader, bounds-checked lengths,
// and a strict no-trailing-bytes rule. A malformed payload returns
// ErrBadPayload and mutates nothing — the fuzz target pins all of
// that.
//
// Evolution rules match §9: never renumber a kind, append only, bump
// wireVersion for any layout change.

// wireVersion is the cluster payload format version.
const wireVersion byte = 1

// Payload kinds. Stable protocol constants.
const (
	kindSync        byte = 1
	kindPrepare     byte = 2
	kindPrepareAck  byte = 3
	kindState       byte = 4
	kindFlushMarker byte = 5
	kindFlushAck    byte = 6
)

// ErrBadPayload rejects a cluster payload that does not decode: wrong
// version, unknown kind, truncated or oversized fields, or trailing
// bytes.
var ErrBadPayload = errors.New("cluster: malformed control payload")

// Payload is the sum type of cluster control messages.
type Payload interface{ isPayload() }

// Sync is the gossip message: the sender's full member map and its
// committed routing overrides. ReplyWanted marks the push half of a
// push-pull (a join, or a host meeting a member it just learned of),
// so the sender gets the receiver's view back immediately instead of
// waiting a gossip round.
type Sync struct {
	From        transport.NodeID // sending host
	ReplyWanted bool
	Members     []Member
	Routes      []Route
}

// Route is one committed routing override: node lives on Host as of
// directory version Ver, superseding the placement ring. Overrides are
// how migrations outlive ring placement — see Directory.
type Route struct {
	Node transport.NodeID
	Host transport.NodeID
	Ver  uint64
}

// Prepare opens a migration: the source host asks the destination to
// construct a parked shell for Node before any state or forwarded
// frame can arrive.
type Prepare struct {
	Node transport.NodeID
	From transport.NodeID // source host
}

// PrepareAck confirms the shell exists; the source may now cut.
type PrepareAck struct {
	Node transport.NodeID
	From transport.NodeID // destination host
}

// State ships the migration payload: the Snapshotter state plus the
// frames parked on the source between the park and the cut, in arrival
// order. It travels on the source→destination host link *before* any
// forwarded frame — the engine guarantees it by sending inside the
// extract's shard step.
type State struct {
	Node     transport.NodeID
	From     transport.NodeID // source host
	RouteVer uint64
	Snapshot []byte
	Frames   []engine.MigratedFrame
}

// FlushMarker is the FIFO fence of the re-route protocol. It is
// addressed to the migrating process itself and sent via the sender's
// old route, so it trails every frame the sender ever routed that way;
// the engine's control hook consumes it wherever the process's
// delivery path finally runs it (the new host), proving the old path
// is drained for Origin.
type FlushMarker struct {
	Node   transport.NodeID
	Origin transport.NodeID // host whose path is being flushed
	Ver    uint64
}

// FlushAck releases Origin's send gate: the marker arrived at the new
// host, so every pre-gate frame has been delivered and the sender may
// switch to the new route.
type FlushAck struct {
	Node transport.NodeID
	Ver  uint64
}

func (Sync) isPayload()        {}
func (Prepare) isPayload()     {}
func (PrepareAck) isPayload()  {}
func (State) isPayload()       {}
func (FlushMarker) isPayload() {}
func (FlushAck) isPayload()    {}

// Encode serializes one control payload.
func Encode(p Payload) []byte {
	w := engine.NewSnapWriter(64)
	w.U8(wireVersion)
	switch v := p.(type) {
	case Sync:
		w.U8(kindSync)
		w.I32(int32(v.From))
		w.Bool(v.ReplyWanted)
		w.Len(len(v.Members))
		for _, m := range v.Members {
			w.I32(int32(m.Host))
			w.Str(m.Addr)
			w.U64(m.Inc)
			w.U64(m.Ver)
			w.U8(uint8(m.Status))
		}
		w.Len(len(v.Routes))
		for _, r := range v.Routes {
			w.I32(int32(r.Node))
			w.I32(int32(r.Host))
			w.U64(r.Ver)
		}
	case Prepare:
		w.U8(kindPrepare)
		w.I32(int32(v.Node))
		w.I32(int32(v.From))
	case PrepareAck:
		w.U8(kindPrepareAck)
		w.I32(int32(v.Node))
		w.I32(int32(v.From))
	case State:
		w.U8(kindState)
		w.I32(int32(v.Node))
		w.I32(int32(v.From))
		w.U64(v.RouteVer)
		w.Blob(v.Snapshot)
		w.Len(len(v.Frames))
		for _, f := range v.Frames {
			fb, err := msg.AppendEnvelopeFrame(nil, msg.Envelope{
				From: int32(f.From), To: int32(v.Node), Msg: f.M,
			})
			if err != nil {
				// A parked frame outside the wire taxonomy cannot exist:
				// it arrived through the wire or an intra-host send of a
				// taxonomy type. Encode it as absent rather than corrupt
				// the whole payload.
				panic(fmt.Sprintf("cluster: unencodable parked frame %T: %v", f.M, err))
			}
			w.Blob(fb)
		}
	case FlushMarker:
		w.U8(kindFlushMarker)
		w.I32(int32(v.Node))
		w.I32(int32(v.Origin))
		w.U64(v.Ver)
	case FlushAck:
		w.U8(kindFlushAck)
		w.I32(int32(v.Node))
		w.U64(v.Ver)
	default:
		panic(fmt.Sprintf("cluster: encode of unknown payload %T", p))
	}
	return w.Bytes()
}

// Decode parses one control payload. It never panics on hostile input
// and returns ErrBadPayload without partial effects: callers only
// apply a payload that decoded completely.
func Decode(b []byte) (Payload, error) {
	r := engine.NewSnapReader(b)
	if r.U8() != wireVersion {
		return nil, ErrBadPayload
	}
	kind := r.U8()
	if r.Err() != nil {
		return nil, ErrBadPayload
	}
	var p Payload
	switch kind {
	case kindSync:
		v := Sync{From: transport.NodeID(r.I32()), ReplyWanted: r.Bool()}
		n := r.Len()
		if r.Err() != nil {
			return nil, ErrBadPayload
		}
		v.Members = make([]Member, 0, n)
		for i := 0; i < n; i++ {
			m := Member{
				Host:   transport.NodeID(r.I32()),
				Addr:   r.Str(),
				Inc:    r.U64(),
				Ver:    r.U64(),
				Status: Status(r.U8()),
			}
			if m.Status < StatusAlive || m.Status > StatusLeft {
				return nil, ErrBadPayload
			}
			v.Members = append(v.Members, m)
		}
		n = r.Len()
		if r.Err() != nil {
			return nil, ErrBadPayload
		}
		v.Routes = make([]Route, 0, n)
		for i := 0; i < n; i++ {
			v.Routes = append(v.Routes, Route{
				Node: transport.NodeID(r.I32()),
				Host: transport.NodeID(r.I32()),
				Ver:  r.U64(),
			})
		}
		p = v
	case kindPrepare:
		p = Prepare{Node: transport.NodeID(r.I32()), From: transport.NodeID(r.I32())}
	case kindPrepareAck:
		p = PrepareAck{Node: transport.NodeID(r.I32()), From: transport.NodeID(r.I32())}
	case kindState:
		v := State{
			Node:     transport.NodeID(r.I32()),
			From:     transport.NodeID(r.I32()),
			RouteVer: r.U64(),
		}
		// Snapshot and frame blobs are copied out: the reader aliases
		// the payload buffer, but State outlives the handler call.
		v.Snapshot = append([]byte(nil), r.Blob()...)
		n := r.Len()
		if r.Err() != nil {
			return nil, ErrBadPayload
		}
		v.Frames = make([]engine.MigratedFrame, 0, n)
		for i := 0; i < n; i++ {
			fb := r.Blob()
			if r.Err() != nil {
				return nil, ErrBadPayload
			}
			env, used, err := msg.DecodeEnvelopeFrame(fb)
			if err != nil || used != len(fb) || env.Ctl != msg.CtlData {
				return nil, ErrBadPayload
			}
			if transport.NodeID(env.To) != v.Node {
				return nil, ErrBadPayload
			}
			v.Frames = append(v.Frames, engine.MigratedFrame{
				From: transport.NodeID(env.From), M: env.Msg,
			})
		}
		p = v
	case kindFlushMarker:
		p = FlushMarker{
			Node:   transport.NodeID(r.I32()),
			Origin: transport.NodeID(r.I32()),
			Ver:    r.U64(),
		}
	case kindFlushAck:
		p = FlushAck{Node: transport.NodeID(r.I32()), Ver: r.U64()}
	default:
		return nil, ErrBadPayload
	}
	if r.Err() != nil {
		return nil, ErrBadPayload
	}
	// Strict framing: a well-formed payload consumes every byte.
	r.U8()
	if r.Err() == nil {
		return nil, ErrBadPayload
	}
	return p, nil
}
