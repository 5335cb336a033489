//go:build !netsimscribble

package anonet

const takeAllocs = 0
