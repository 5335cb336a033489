//go:build netsimscribble

package netsim

import "bytes"

// scribblePayload is the payload every released packet is given in a
// netsimscribble build: 0xAA bytes, shared by all of them.
var scribblePayload = bytes.Repeat([]byte{0xAA}, 1500)

// recycle, in a netsimscribble test build, overwrites a packet the
// network is done with and never puts it back on the free list, so every
// send draws a new packet. A handler, tap or fault hook that kept a
// released packet then reads poison, and a golden output or a check
// fails, instead of silently reading a later packet's fields.
func (n *Network) recycle(pkt *Packet) {
	*pkt = Packet{
		ID: -1,
		Header: Header{
			Src: "scribbled", Dst: "scribbled",
			SrcPort: -1, DstPort: -1,
			Proto:     -1,
			Flow:      "scribbled",
			SizeBytes: -1,
		},
		Payload:     scribblePayload,
		Encrypted:   true,
		SentAt:      -1,
		DeliveredAt: -1,
	}
}
