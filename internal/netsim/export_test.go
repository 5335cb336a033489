package netsim

// FreeLen reports how many recycled packets the view's free list holds.
func (n *Network) FreeLen() int { return len(n.free) }

// Scribbled reports whether this test binary was built with the
// netsimscribble tag, whose recycle poisons a packet instead of putting
// it back on the free list.
func Scribbled() bool {
	n := NewNetwork(NewSimulator(0))
	n.recycle(&Packet{})
	return len(n.free) == 0
}
