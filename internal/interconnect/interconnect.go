// Package interconnect models the on-chip network between the SM clusters
// and the shared L2 banks (Table 2: a butterfly topology). The model is a
// latency/bandwidth abstraction: a transfer pays a base latency
// proportional to the number of butterfly stages, plus queueing delay at
// its destination port, which accepts one transfer per cycle. That is
// enough to make bank contention and reply-path backpressure emerge in
// the simulator without simulating individual flits.
package interconnect

import (
	"fmt"
	"math/bits"
)

// Stats counts network activity.
type Stats struct {
	Transfers   uint64
	QueueCycles uint64 // total cycles transfers spent queued at ports
}

// Network is a unidirectional butterfly from its input ports to its
// output ports. Use one instance per direction (request and reply), as
// GPUs do.
type Network struct {
	latency  int64   // unloaded traversal: stages × per-stage router depth
	nextFree []int64 // earliest cycle each output port is free
	Stats    Stats
}

// New builds a butterfly network. Ports must be positive. The stage count
// is ceil(log2(max(inputs, outputs))), minimum 1, and each stage costs
// perStageCycles of router pipeline.
func New(inputs, outputs int, perStageCycles int64) *Network {
	if inputs <= 0 || outputs <= 0 || perStageCycles <= 0 {
		panic("interconnect: non-positive parameters")
	}
	n := inputs
	if outputs > n {
		n = outputs
	}
	stages := bits.Len(uint(n - 1)) // ceil(log2(n))
	if stages < 1 {
		stages = 1
	}
	return &Network{
		latency:  int64(stages) * perStageCycles,
		nextFree: make([]int64, outputs),
	}
}

// Reset frees every port and zeroes the statistics: the network is then
// as New built it.
func (n *Network) Reset() {
	clear(n.nextFree)
	n.Stats = Stats{}
}

// BaseLatency returns the unloaded traversal latency in cycles.
func (n *Network) BaseLatency() int64 { return n.latency }

// checkOutput panics on an output port outside the network.
func (n *Network) checkOutput(output int) {
	if output < 0 || output >= len(n.nextFree) {
		panic(fmt.Sprintf("interconnect: output %d out of range [0,%d)", output, len(n.nextFree)))
	}
}

// Deliver sends one transfer entering the network at cycle now toward the
// given output port and returns its arrival cycle, accounting for port
// serialization (one transfer per port per cycle).
func (n *Network) Deliver(now int64, output int) int64 {
	n.checkOutput(output)
	arrival := now + n.BaseLatency()
	if nf := n.nextFree[output]; arrival < nf {
		n.Stats.QueueCycles += uint64(nf - arrival)
		arrival = nf
	}
	n.nextFree[output] = arrival + 1
	n.Stats.Transfers++
	return arrival
}

// DeliverUncontended sends one transfer entering at cycle now toward the
// output and returns its arrival after the base traversal latency,
// without port serialization. Use it for flows whose entry times are not
// monotone (e.g. reply traffic keyed by completion times): clamping such
// flows to a monotone port would make an early completion queue behind a
// later-issued but slower one, which no real router does — replies in
// flight at different times never contend for the same cycle slot just
// because the simulator observed them out of order.
func (n *Network) DeliverUncontended(now int64, output int) int64 {
	n.checkOutput(output)
	n.Stats.Transfers++
	return now + n.BaseLatency()
}
