package live

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"vdm/internal/overlay"
	"vdm/internal/transport"
	"vdm/internal/wire"
)

// helloRetryInterval paces the joiner's Hello retransmissions until a
// Welcome arrives.
const helloRetryInterval = 250 * time.Millisecond

// Session bootstraps a UDP deployment: node-id assignment and address
// discovery, the two things the simulator gets for free from its global
// registry. The source session owns the authoritative id → address
// directory, filled by Hello handshakes; joiners obtain their id from the
// source's Welcome and resolve missing peer addresses on demand with
// AddrQuery (wired into the transport's ResolveFn). Overlay traffic never
// relays through the source — the directory only maps identities to
// socket addresses.
type Session struct {
	tr *transport.UDP

	mu     sync.Mutex
	id     overlay.NodeID
	nextID overlay.NodeID
	dir    map[overlay.NodeID]string // source only: id → observed address
	epoch  time.Time                 // shared session clock zero

	srcAddr *net.UDPAddr // joiner only
	welcome chan wire.Frame
}

// NewSourceSession makes tr the session rendezvous: node 0, owner of the
// peer directory and of the session epoch, which every Welcome carries so
// joiners run on the same clock. Call before publishing the address to
// joiners.
func NewSourceSession(tr *transport.UDP, epoch time.Time) *Session {
	s := &Session{
		tr:     tr,
		id:     0,
		nextID: 1,
		dir:    map[overlay.NodeID]string{0: tr.LocalAddr()},
		epoch:  epoch,
	}
	tr.SetSessionHandler(s.handleSource)
	return s
}

// JoinSession performs the Hello/Welcome handshake against the source at
// sourceAddr and wires address resolution into tr. On success the
// returned session knows this node's assigned id and the session epoch.
func JoinSession(tr *transport.UDP, sourceAddr string, timeout time.Duration) (*Session, error) {
	raddr, err := net.ResolveUDPAddr("udp", sourceAddr)
	if err != nil {
		return nil, fmt.Errorf("live: source address %q: %w", sourceAddr, err)
	}
	s := &Session{
		tr:      tr,
		id:      overlay.None,
		srcAddr: raddr,
		welcome: make(chan wire.Frame, 1),
	}
	tr.SetSessionHandler(s.handleJoiner)

	hello := wire.Frame{Kind: wire.KindHello, From: overlay.None, To: 0, Addr: tr.LocalAddr()}
	deadline := time.Now().Add(timeout)
	for {
		if err := tr.SendFrame(raddr, hello); err != nil {
			return nil, fmt.Errorf("live: hello: %w", err)
		}
		select {
		case f := <-s.welcome:
			s.mu.Lock()
			s.id = f.Node
			// Adopt the source's session clock: the Welcome says how many
			// seconds into the session it was sent, so our epoch is that
			// far in the past (plus the one-way transit, below one-way
			// measurement precision anyway).
			s.epoch = time.Now().Add(-time.Duration(f.EpochS * float64(time.Second)))
			s.mu.Unlock()
			for _, pa := range f.Peers {
				if pa.ID != f.Node {
					tr.SetRoute(pa.ID, pa.Addr)
				}
			}
			tr.SetRoute(f.Src, raddr.String())
			tr.SetResolveFn(s.resolve)
			return s, nil
		case <-time.After(helloRetryInterval):
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("live: no Welcome from %s after %v", sourceAddr, timeout)
			}
		}
	}
}

// ID returns this node's session id (overlay.None until joined).
func (s *Session) ID() overlay.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.id
}

// Epoch returns the shared session clock zero: the source's own epoch, or
// the one the joiner adopted from the Welcome. Build the live.Peer on
// this so timestamps — trace events, in-band chunk-trace origins —
// compare across processes.
func (s *Session) Epoch() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// handleSource services Hello and AddrQuery at the rendezvous.
func (s *Session) handleSource(from *net.UDPAddr, f wire.Frame) {
	switch f.Kind {
	case wire.KindHello:
		addr := from.String()
		s.mu.Lock()
		// A re-Hello (lost Welcome) from a known address keeps its id, so
		// the handshake is idempotent.
		id := overlay.None
		for nid, a := range s.dir {
			if a == addr {
				id = nid
				break
			}
		}
		if id == overlay.None {
			id = s.nextID
			s.nextID++
			s.dir[id] = addr
		}
		peers := make([]wire.PeerAddr, 0, len(s.dir))
		for nid, a := range s.dir {
			peers = append(peers, wire.PeerAddr{ID: nid, Addr: a})
		}
		s.mu.Unlock()
		sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
		s.tr.SetRoute(id, addr)
		s.tr.SendFrame(from, wire.Frame{
			Kind: wire.KindWelcome, From: 0, To: id,
			Node: id, Src: 0, Peers: peers,
			EpochS: time.Since(s.epoch).Seconds(),
		})
	case wire.KindAddrQuery:
		s.mu.Lock()
		addr := s.dir[f.Node] // "" when unknown
		s.mu.Unlock()
		s.tr.SendFrame(from, wire.Frame{
			Kind: wire.KindAddrReply, From: 0, To: f.From,
			Node: f.Node, Addr: addr,
		})
	}
}

// handleJoiner services Welcome and AddrReply at a member.
func (s *Session) handleJoiner(from *net.UDPAddr, f wire.Frame) {
	switch f.Kind {
	case wire.KindWelcome:
		select {
		case s.welcome <- f:
		default: // duplicate Welcome from a re-sent Hello
		}
	case wire.KindAddrReply:
		if f.Addr != "" {
			s.tr.SetRoute(f.Node, f.Addr)
		}
	}
}

// resolve asks the source for id's address; the AddrReply installs the
// route and flushes whatever the transport parked.
func (s *Session) resolve(id overlay.NodeID) {
	s.tr.SendFrame(s.srcAddr, wire.Frame{
		Kind: wire.KindAddrQuery, From: s.ID(), To: 0, Node: id,
	})
}
