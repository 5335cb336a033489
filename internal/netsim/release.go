//go:build !netsimscribble

package netsim

// recycle puts a packet the network is done with back on the
// partition's free list. It drops the payload reference: the sender's
// bytes are never reused.
func (n *Network) recycle(pkt *Packet) {
	pkt.Payload = nil
	n.free = append(n.free, pkt)
}
