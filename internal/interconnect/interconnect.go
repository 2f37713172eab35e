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
	return serialize(now+n.latency, &n.nextFree[output], &n.Stats)
}

// serialize delays a transfer arriving at cycle arrival until its port
// is free and occupies the port for one cycle.
func serialize(arrival int64, nextFree *int64, st *Stats) int64 {
	if nf := *nextFree; arrival < nf {
		st.QueueCycles += uint64(nf - arrival)
		arrival = nf
	}
	*nextFree = arrival + 1
	st.Transfers++
	return arrival
}

// Port is one output port of a Network detached from it, so that one
// goroutine can drive that port's traffic while others drive other
// ports, without any of them writing the shared Network. Its Stats
// count only the transfers delivered through the Port.
type Port struct {
	latency  int64
	nextFree int64
	Stats    Stats
}

// Port detaches output's serialization state. Deliver on the Port then
// behaves exactly as Deliver on the Network would for that output, and
// MergePort folds the result back.
func (n *Network) Port(output int) Port {
	n.checkOutput(output)
	return Port{latency: n.latency, nextFree: n.nextFree[output]}
}

// Deliver is Network.Deliver for the detached port.
func (p *Port) Deliver(now int64) int64 {
	return serialize(now+p.latency, &p.nextFree, &p.Stats)
}

// MergePort writes a detached port's state back to output and adds its
// statistics to the network's. Ports detached from distinct outputs
// may be merged in any order.
func (n *Network) MergePort(output int, p Port) {
	n.checkOutput(output)
	n.nextFree[output] = p.nextFree
	n.Stats.Transfers += p.Stats.Transfers
	n.Stats.QueueCycles += p.Stats.QueueCycles
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
