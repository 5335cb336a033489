package anonet

import (
	"crypto/cipher"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"lawgate/internal/netsim"
)

// Network errors.
var (
	// ErrUnknownCircuit: no route state for the circuit.
	ErrUnknownCircuit = errors.New("anonet: unknown circuit")
	// ErrBadCircuit: circuit construction parameters are invalid.
	ErrBadCircuit = errors.New("anonet: invalid circuit")
	// ErrNotConnected: required underlying links are missing.
	ErrNotConnected = errors.New("anonet: nodes not connected")
	// ErrDuplicate: the node ID is already registered.
	ErrDuplicate = errors.New("anonet: duplicate node")
)

// flowFor names the netsim flow carrying a circuit's traffic. Circuits
// and routes build theirs once; this is for cells naming any other
// circuit.
func flowFor(circ CircuitID) netsim.FlowID {
	return netsim.FlowID("anon-c" + strconv.FormatUint(uint64(circ), 10))
}

// circFromFlow recovers the circuit ID from a flow name.
func circFromFlow(f netsim.FlowID) (CircuitID, bool) {
	s := string(f)
	if !strings.HasPrefix(s, "anon-c") {
		return 0, false
	}
	n, err := strconv.ParseUint(s[len("anon-c"):], 10, 64)
	if err != nil {
		return 0, false
	}
	return CircuitID(n), true
}

// Anonet is an anonymity overlay on a simulated network.
type Anonet struct {
	net      *netsim.Network
	relays   map[netsim.NodeID]*Relay
	clients  map[netsim.NodeID]*Client
	servers  map[netsim.NodeID]*Server
	nextCirc CircuitID
}

// New builds an empty anonymity overlay on net.
func New(net *netsim.Network) *Anonet {
	return &Anonet{
		net:     net,
		relays:  make(map[netsim.NodeID]*Relay),
		clients: make(map[netsim.NodeID]*Client),
		servers: make(map[netsim.NodeID]*Server),
	}
}

// Net returns the carrying network.
func (a *Anonet) Net() *netsim.Network { return a.net }

// route is one relay's per-circuit state.
type route struct {
	prev, next netsim.NodeID // next is empty at the exit
	layer      cipher.AEAD   // this hop's cipher, built at BuildCircuit
	flow       netsim.FlowID // flowFor of the route's circuit
	exitSeq    uint64        // backward cell sequence, assigned by the exit
	sc         layerScratch  // applyLayer's scratch; only the relay's node touches it
}

// Relay is one onion router.
type Relay struct {
	// ID is the relay's node.
	ID netsim.NodeID

	a      *Anonet
	routes map[CircuitID]*route
	// Relayed counts cells forwarded in either direction.
	Relayed int64
}

// AddRelay registers a relay node.
func (a *Anonet) AddRelay(id netsim.NodeID) (*Relay, error) {
	if a.taken(id) {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, id)
	}
	r := &Relay{ID: id, a: a, routes: make(map[CircuitID]*route)}
	if err := a.net.AddNode(id, netsim.HandlerFunc(r.handle)); err != nil {
		return nil, err
	}
	a.relays[id] = r
	return r, nil
}

// Client is an anonymity-network user.
type Client struct {
	// ID is the client's node.
	ID netsim.NodeID
	// OnData receives decrypted backward traffic per circuit.
	OnData func(circ CircuitID, data []byte, at time.Duration)

	a        *Anonet
	circuits map[CircuitID]*Circuit
}

// AddClient registers a client node.
func (a *Anonet) AddClient(id netsim.NodeID) (*Client, error) {
	if a.taken(id) {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, id)
	}
	c := &Client{ID: id, a: a, circuits: make(map[CircuitID]*Circuit)}
	if err := a.net.AddNode(id, netsim.HandlerFunc(c.handle)); err != nil {
		return nil, err
	}
	a.clients[id] = c
	return c, nil
}

// Server is a destination outside the anonymity network.
type Server struct {
	// ID is the server's node.
	ID netsim.NodeID
	// OnRequest receives plaintext application data forwarded by an
	// exit; from and flow identify the return path for Reply.
	OnRequest func(from netsim.NodeID, flow netsim.FlowID, data []byte)

	a *Anonet
}

// AddServer registers a server node.
func (a *Anonet) AddServer(id netsim.NodeID) (*Server, error) {
	if a.taken(id) {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, id)
	}
	s := &Server{ID: id, a: a}
	if err := a.net.AddNode(id, netsim.HandlerFunc(s.handle)); err != nil {
		return nil, err
	}
	a.servers[id] = s
	return s, nil
}

func (a *Anonet) taken(id netsim.NodeID) bool {
	if _, ok := a.relays[id]; ok {
		return true
	}
	if _, ok := a.clients[id]; ok {
		return true
	}
	_, ok := a.servers[id]
	return ok
}

// Circuit is a client's view of a telescoped path.
type Circuit struct {
	// ID is the network-wide circuit identifier.
	ID CircuitID
	// Hops are the relays in path order (entry first).
	Hops []netsim.NodeID

	layers []cipher.AEAD // one cipher per hop, entry first
	flow   netsim.FlowID
	fwdSeq uint64
	sc     layerScratch // applyLayer's scratch; only the client's node touches it
}

// BuildCircuit telescopes a circuit from the client through the given
// relays (entry first). The underlying links client-entry and
// relay-relay must already exist. Key establishment is simulated
// out-of-band: fresh keys are drawn from the simulator's seeded RNG and
// installed at each relay, standing in for the Diffie-Hellman handshakes
// of the real protocol.
func (a *Anonet) BuildCircuit(client *Client, relays ...netsim.NodeID) (*Circuit, error) {
	if client == nil || len(relays) == 0 {
		return nil, fmt.Errorf("%w: need a client and at least one relay", ErrBadCircuit)
	}
	prev := client.ID
	for _, id := range relays {
		if _, ok := a.relays[id]; !ok {
			return nil, fmt.Errorf("%w: %q is not a relay", ErrBadCircuit, id)
		}
		if !a.net.Linked(prev, id) {
			return nil, fmt.Errorf("%w: %q-%q", ErrNotConnected, prev, id)
		}
		prev = id
	}
	a.nextCirc++
	circ := &Circuit{
		ID:   a.nextCirc,
		Hops: append([]netsim.NodeID(nil), relays...),
		flow: flowFor(a.nextCirc),
	}
	rng := a.net.Sim().Rand()
	prev = client.ID
	for i, id := range relays {
		var key LayerKey
		for j := range key {
			key[j] = byte(rng.Intn(256))
		}
		layer, err := newLayer(key)
		if err != nil {
			return nil, err
		}
		circ.layers = append(circ.layers, layer)
		rt := &route{prev: prev, layer: layer, flow: circ.flow}
		if i+1 < len(relays) {
			rt.next = relays[i+1]
		}
		a.relays[id].routes[circ.ID] = rt
		prev = id
	}
	client.circuits[circ.ID] = circ
	return circ, nil
}

// CloseCircuit tears a circuit down: every relay forgets its per-circuit
// route state and the client drops its keys. Traffic still in flight is
// dropped at the first relay that no longer recognizes the circuit.
func (a *Anonet) CloseCircuit(client *Client, circ *Circuit) error {
	if _, ok := client.circuits[circ.ID]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownCircuit, circ.ID)
	}
	for _, hop := range circ.Hops {
		if r, ok := a.relays[hop]; ok {
			delete(r.routes, circ.ID)
		}
	}
	delete(client.circuits, circ.ID)
	return nil
}

// Send transmits application data through the circuit to a destination
// server adjacent to the exit. The relay payload is written straight into
// one padded cell, which is then wrapped in one encryption layer per hop.
func (c *Client) Send(circ *Circuit, dst netsim.NodeID, data []byte) error {
	if _, ok := c.circuits[circ.ID]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownCircuit, circ.ID)
	}
	if len(dst) > 255 {
		return fmt.Errorf("%w: destination name too long", ErrBadCell)
	}
	circ.fwdSeq++
	seq := circ.fwdSeq
	n := 1 + len(dst) + len(data) // the relay payload's size
	if n > cellDataCap {
		return fmt.Errorf("%w: %d > %d", ErrCellTooLarge, n, cellDataCap)
	}
	wire := newCell(circ.ID, seq, n)
	onion := wire[cellHeaderLen : cellHeaderLen+n]
	relayPayload{Dst: string(dst), Data: data}.put(onion)
	for i := len(circ.layers) - 1; i >= 0; i-- {
		applyLayer(circ.layers[i], &circ.sc, circ.ID, seq, false, onion, onion)
	}
	return c.a.net.Send(&netsim.Packet{
		Header: netsim.Header{
			Src: c.ID, Dst: circ.Hops[0],
			Flow: circ.flow, Proto: netsim.ProtoTCP,
		},
		Payload:   wire,
		Encrypted: true,
	})
}

// handle peels backward cells arriving at the client in place; only a
// packet on its circuit's flow is a cell anonet built.
func (c *Client) handle(_ *netsim.Network, pkt *netsim.Packet) {
	cl, err := unmarshalCell(pkt.Payload)
	if err != nil {
		return
	}
	circ, ok := c.circuits[cl.Circ]
	if !ok || pkt.Header.Flow != circ.flow {
		return
	}
	for _, layer := range circ.layers {
		applyLayer(layer, &circ.sc, cl.Circ, cl.Seq, true, cl.Data, cl.Data)
	}
	if c.OnData != nil {
		c.OnData(cl.Circ, cl.Data, pkt.DeliveredAt)
	}
}

// handle processes cells at a relay: forward cells shed one layer and move
// toward the exit; backward traffic gains one layer and moves toward the
// client; the exit bridges to plaintext. Relayed cells are rewritten in
// place (see package doc), and every hop re-sends the packet it was
// handed.
func (r *Relay) handle(_ *netsim.Network, pkt *netsim.Packet) {
	rtCirc, fromServer := circFromFlow(pkt.Header.Flow)
	if !fromServer {
		return
	}
	rt, ok := r.routes[rtCirc]
	if !ok {
		return
	}
	isExit := rt.next == ""

	// Backward plaintext from an adjacent server, at the exit only, into
	// a new cell: a server may share one buffer across replies.
	if isExit && pkt.Header.Src != rt.prev {
		rt.exitSeq++
		n := len(pkt.Payload)
		if n > cellDataCap {
			return
		}
		wire := newCell(rtCirc, rt.exitSeq, n)
		applyLayer(rt.layer, &rt.sc, rtCirc, rt.exitSeq, true, wire[cellHeaderLen:cellHeaderLen+n], pkt.Payload)
		r.forward(pkt, rt.prev, rt.flow, wire, true)
		return
	}

	cl, err := unmarshalCell(pkt.Payload)
	if err != nil {
		return
	}
	// A forwarded cell is exactly the padded cell its header describes.
	clear(pkt.Payload[cellHeaderLen+len(cl.Data):])
	flow := rt.flow
	if cl.Circ != rtCirc {
		flow = flowFor(cl.Circ)
	}
	switch pkt.Header.Src {
	case rt.prev: // forward direction
		applyLayer(rt.layer, &rt.sc, cl.Circ, cl.Seq, false, cl.Data, cl.Data)
		if !isExit {
			r.forward(pkt, rt.next, flow, pkt.Payload, true)
			return
		}
		rp, err := unmarshalRelayPayload(cl.Data)
		if err != nil {
			return
		}
		r.forward(pkt, netsim.NodeID(rp.Dst), flow, rp.Data, false)
	case rt.next: // backward direction: add this relay's layer
		applyLayer(rt.layer, &rt.sc, cl.Circ, cl.Seq, true, cl.Data, cl.Data)
		r.forward(pkt, rt.prev, flow, pkt.Payload, true)
	}
}

// forward re-sends pkt, the packet the relay was handed, to the
// neighbouring hop on flow, carrying payload. The packet is the relay's
// to rewrite until its handler returns (see netsim.Handler); every
// header field is replaced, and Send transmits a stamped copy.
func (r *Relay) forward(pkt *netsim.Packet, to netsim.NodeID, flow netsim.FlowID, payload []byte, encrypted bool) {
	r.Relayed++
	pkt.Header = netsim.Header{
		Src: r.ID, Dst: to,
		Flow: flow, Proto: netsim.ProtoTCP,
	}
	pkt.Payload = payload
	pkt.Encrypted = encrypted
	_ = r.a.net.Send(pkt)
}

// handle delivers plaintext requests to the server's application handler.
func (s *Server) handle(_ *netsim.Network, pkt *netsim.Packet) {
	if s.OnRequest != nil {
		s.OnRequest(pkt.Header.Src, pkt.Header.Flow, pkt.Payload)
	}
}

// Reply sends one plaintext packet back toward the exit that forwarded a
// request; the exit wraps it into the circuit. Replies must fit one cell.
func (s *Server) Reply(to netsim.NodeID, flow netsim.FlowID, data []byte) error {
	if len(data) > cellDataCap {
		return fmt.Errorf("%w: reply %d bytes", ErrCellTooLarge, len(data))
	}
	return s.a.net.Send(&netsim.Packet{
		Header: netsim.Header{
			Src: s.ID, Dst: to,
			Flow: flow, Proto: netsim.ProtoTCP,
		},
		Payload: data,
	})
}
