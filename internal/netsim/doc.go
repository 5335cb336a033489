// Package netsim is a deterministic discrete-event packet-network
// simulator: the substrate on which lawgate runs the paper's network
// scenarios. It provides a seeded event loop with a virtual clock, nodes
// connected by links with latency, jitter, and loss, layered packets that
// preserve the content/addressing distinction the statutes turn on, taps
// for passive observation (the capture package's devices attach here), and
// a small library of traffic patterns (constant bit rate, Poisson, Pareto
// ON/OFF) for workload generation.
//
// There is one engine, ShardedNetwork; NewSimulator and NewNetwork build
// its one-partition, serial case. Determinism: all randomness flows from
// the run's seed through per-node streams, and same-time events fire in
// the order of their origin node and that node's scheduling order, so
// every experiment is exactly reproducible at any partition count.
package netsim
