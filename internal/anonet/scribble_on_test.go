//go:build netsimscribble

package anonet

// takeAllocs is the allocation count of one packet the network takes
// from its free list. A netsimscribble build never reuses a packet, so
// every send allocates the one it transmits.
const takeAllocs = 1
