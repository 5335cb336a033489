//go:build !netsimscribble

package netsim

// recycle puts a Flow packet the network is done with back on the
// partition's free list. It drops the payload reference: the flow's
// bytes are never reused. Clearing pooled makes a second release of the
// packet a no-op until Flow.emit takes it again.
func (n *Network) recycle(pkt *Packet) {
	pkt.pooled = false
	pkt.Payload = nil
	n.free = append(n.free, pkt)
}
