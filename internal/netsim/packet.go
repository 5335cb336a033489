package netsim

import (
	"fmt"
	"time"
)

// NodeID names a node in the simulated network.
type NodeID string

// FlowID names a flow (a conversation) across packets.
type FlowID string

// Protocol is the transport protocol of a packet.
type Protocol int

// Transport protocols.
const (
	// ProtoTCP is TCP.
	ProtoTCP Protocol = iota + 1
	// ProtoUDP is UDP.
	ProtoUDP
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Header carries the packet's addressing information — everything the
// Pen/Trap statute reaches: link/IP/transport headers and size, but not
// payload.
type Header struct {
	// Src and Dst are the endpoints.
	Src, Dst NodeID
	// SrcPort and DstPort are transport ports.
	SrcPort, DstPort int
	// Proto is the transport protocol.
	Proto Protocol
	// Flow groups packets into a conversation.
	Flow FlowID
	// SizeBytes is the total on-wire size, payload included; packet
	// size is non-content information per the paper (§ II-B-c).
	SizeBytes int
}

// Packet is one simulated datagram. Header fields are addressing
// information; Payload is content; Encrypted marks payload ciphertext.
//
// The network transmits its own copy of every packet (see Send) and
// reuses that copy once it is dropped or its HandlePacket call returns
// (see Handler).
type Packet struct {
	// ID is unique per network.
	ID int64
	// Header is the addressing information.
	Header Header
	// Payload is the content.
	Payload []byte
	// Encrypted reports whether Payload is ciphertext.
	Encrypted bool
	// SentAt and DeliveredAt are stamped by the network.
	SentAt, DeliveredAt time.Duration
}

// Clone returns a deep copy of the packet, for a handler that keeps a
// delivered packet past its HandlePacket call.
func (p *Packet) Clone() *Packet {
	cp := *p
	cp.Payload = append([]byte(nil), p.Payload...)
	return &cp
}

// cloneInto copies p into dst, reusing dst's Payload capacity.
// Tap observation snapshots go through here so steady-state observation
// allocates nothing once the buffers have grown to the packet sizes in
// play; so do fault duplicates, whose free-list packets hold no payload
// and so get a copy of their own.
func (p *Packet) cloneInto(dst *Packet) {
	payload := append(dst.Payload[:0], p.Payload...)
	*dst = *p
	dst.Payload = payload
}
