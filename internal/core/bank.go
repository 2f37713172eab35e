// Package core implements the paper's contribution: the two-part
// (low-retention / high-retention) STT-RAM L2 cache bank for GPUs, with
// its write-working-set monitor, swap buffers, retention counters,
// refresh path, and sequential search selector — plus the two comparison
// points the evaluation needs, a conventional single-technology bank in
// SRAM (the baseline GPU) and in archival 10-year STT-RAM (the naive
// "STT-RAM baseline").
//
// A Bank owns everything between "a request arrives at the bank at cycle
// N" and "the requester can proceed at cycle M", including its private
// DRAM channel (Table 2: each L2 bank has a point-to-point connection to
// a dedicated memory controller).
package core

import (
	"math/bits"
	"time"

	"sttllc/internal/metrics"
	"sttllc/internal/stats"
	"sttllc/internal/sttram"
)

// Part identifies which structure served an access.
type Part int

const (
	PartNone Part = iota // miss (served by DRAM)
	PartUniform
	PartLR
	PartHR
)

// String returns the part name.
func (p Part) String() string {
	switch p {
	case PartUniform:
		return "uniform"
	case PartLR:
		return "LR"
	case PartHR:
		return "HR"
	default:
		return "miss"
	}
}

// Bank is the interface shared by all L2 bank organizations.
type Bank interface {
	// Access serves a read or write of the line containing addr,
	// arriving at cycle now, and returns the cycle at which the
	// requester may proceed and whether the access hit in the bank.
	// Callers must present non-decreasing arrival times.
	Access(now int64, addr uint64, write bool) (done int64, hit bool)
	// Tick advances retention bookkeeping to cycle now. Access catches
	// up by itself, so callers tick only before reading bank state
	// between accesses (observers, reconfiguration, the warmup reset,
	// end of run); ticking more often is harmless.
	Tick(now int64)
	// TickPeriod returns the bank's retention-counter period in cycles,
	// or 0 when the bank has no retention bookkeeping. Observers that
	// sample bank state at a cadence (invariant audits, tracer windows)
	// use it as theirs.
	TickPeriod() int64
	// Drain flushes dirty state at end of simulation (writebacks are
	// charged to DRAM but not waited for).
	Drain(now int64)
	Stats() *BankStats
	// ResetStats zeroes statistics and the energy ledger while keeping
	// array contents and timing state — the warmup boundary.
	ResetStats()
	// RebaseRewriteClock excludes first-write timestamps earlier than
	// boundary from future rewrite-interval samples, so intervals that
	// straddle a statistics reset are dropped rather than recorded
	// against pre-warmup time. The simulator calls it alongside
	// ResetStats at the warmup boundary.
	RebaseRewriteClock(boundary int64)
	Energy() *Energy
	// LeakageWatts returns the bank's static power (data + tag arrays
	// and, for the two-part bank, counters and buffers).
	LeakageWatts() float64
	Reset()
	// RegisterMetrics adopts the bank's statistics into a metrics
	// registry under the scope (e.g. "l2.bank0"). The registry reads
	// the adopted fields only at snapshot time, so registration adds
	// nothing to the access path; on a disabled registry it is a no-op.
	RegisterMetrics(sc metrics.Scope)
}

// BankStats counts the events the experiments need.
type BankStats struct {
	Reads  uint64
	Writes uint64

	ReadHits  uint64
	WriteHits uint64

	// Per-part service counters (two-part bank only; the uniform bank
	// reports everything as HR==0/LR==0 with Uniform implied).
	LRReadHits   uint64
	LRWriteHits  uint64
	LRWriteFills uint64 // write misses allocated directly into LR
	HRReadHits   uint64
	HRWriteHits  uint64
	HRWriteKept  uint64 // HR write hits below threshold (stayed in HR)
	HRWriteFills uint64 // write misses allocated into HR (threshold > 1)

	MigrationsToLR uint64 // HR->LR (threshold reached)
	EvictionsToHR  uint64 // LR->HR (LR victim returned)

	Refreshes          uint64 // LR lines refreshed near expiry
	LRExpiryDrops      uint64 // clean LR lines invalidated at expiry (buffer full)
	HRExpiries         uint64 // HR lines invalidated at retention expiry
	OverflowWritebacks uint64 // dirty lines written back because a buffer was full

	DRAMFills      uint64
	DRAMWritebacks uint64

	// Online-reconfiguration activity (the C4 controller's explicit
	// transitions; all zero on statically configured banks).
	ReconfigThreshold uint64 // SetWriteThreshold transitions applied
	ReconfigLRResize  uint64 // SetLRActiveWays transitions applied
	ReconfigRetention uint64 // SetHRRetention transitions applied
	ReconfigDemotions uint64 // LR lines demoted to HR by an LR shrink

	// RewriteIntervals is the Fig. 6 histogram: time between successive
	// writes to the same LR-resident line, in microseconds.
	RewriteIntervals *stats.Histogram
}

// L2Writes returns total writes arriving at the bank.
func (s *BankStats) L2Writes() uint64 { return s.Writes }

// ArrayWrites returns the number of physical data-array writes performed
// (foreground writes plus migration, eviction, fill, and refresh writes).
// Fig. 4's "write overhead" compares this across thresholds.
func (s *BankStats) ArrayWrites() uint64 {
	return s.LRWriteHits + s.LRWriteFills + s.HRWriteKept + s.HRWriteFills +
		s.MigrationsToLR + s.EvictionsToHR + s.Refreshes + s.DRAMFills
}

// LRWriteShare returns the fraction of arriving writes served by the LR
// part (write hits in LR plus write allocations into LR plus migrations
// triggered by a write). This is Fig. 5's "LR write utilization".
func (s *BankStats) LRWriteShare() float64 {
	if s.Writes == 0 {
		return 0
	}
	lr := s.LRWriteHits + s.LRWriteFills + s.MigrationsToLR
	return float64(lr) / float64(s.Writes)
}

// LRWrites returns the number of data writes performed in the LR part
// (foreground write hits, write allocations, and migrated blocks).
func (s *BankStats) LRWrites() uint64 {
	return s.LRWriteHits + s.LRWriteFills + s.MigrationsToLR
}

// HRWrites returns the number of data writes performed in the HR part
// (kept write hits, write allocations, returning LR victims, and line
// fills from DRAM).
func (s *BankStats) HRWrites() uint64 {
	return s.HRWriteKept + s.HRWriteFills + s.EvictionsToHR + s.DRAMFills
}

// LRRewriteHitShare returns the fraction of write hits that found their
// block already resident in the LR part. Low LR associativity bounces
// frequently-written blocks back to HR between rewrites, which is what
// the paper's Fig. 5 utilization metric penalizes.
func (s *BankStats) LRRewriteHitShare() float64 {
	if s.WriteHits == 0 {
		return 0
	}
	return float64(s.LRWriteHits) / float64(s.WriteHits)
}

// HitRate returns the overall bank hit rate.
func (s *BankStats) HitRate() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.ReadHits+s.WriteHits) / float64(total)
}

// rewriteIntervalEdgesUS are the Fig. 6 bucket bounds in microseconds:
// ≤1µs, ≤5µs, ≤10µs, ≤1ms, ≤2.5ms, with >2.5ms as overflow.
var rewriteIntervalEdgesUS = []float64{1, 5, 10, 1000, 2500}

// NewRewriteHistogram returns a histogram with the paper's Fig. 6 bucket
// edges (microseconds).
func NewRewriteHistogram() *stats.Histogram {
	return stats.NewHistogram(rewriteIntervalEdgesUS...)
}

// Energy is the bank's dynamic-energy ledger in joules, split by
// component so the experiments can report breakdowns.
type Energy struct {
	TagAccess  float64 // SRAM tag probes
	DataRead   float64 // data-array reads (both parts)
	DataWrite  float64 // data-array writes (both parts)
	Migration  float64 // HR->LR and LR->HR block movement
	Refresh    float64 // LR refresh read+rewrite
	Buffer     float64 // swap-buffer SRAM accesses
	RCCounters float64 // retention-counter updates
}

// Total returns the summed dynamic energy.
func (e *Energy) Total() float64 {
	return e.TagAccess + e.DataRead + e.DataWrite + e.Migration +
		e.Refresh + e.Buffer + e.RCCounters
}

// cyclesOf converts a duration to core cycles at clockHz, rounding up and
// never below 1.
func cyclesOf(d time.Duration, clockHz float64) int64 {
	c := int64(float64(d) * clockHz / float64(time.Second))
	if float64(c)*float64(time.Second)/clockHz < float64(d) {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// usOf converts a cycle count to microseconds at clockHz. The multiply
// happens before the divide so the result rounds once: dividing first
// and scaling after rounds twice, which can push a value that is
// exactly a Fig. 6 bucket edge (e.g. 7000 cycles at 700MHz = 10µs) a
// ULP across it and into the wrong bucket.
func usOf(cycles int64, clockHz float64) float64 {
	return float64(cycles) * 1e6 / clockHz
}

// tagEnergy returns the energy of one SRAM tag-array probe for a cache
// with the given tag width.
func tagEnergy(tagBits int) float64 {
	return sttram.SRAMCell().ReadEnergyPerBit * float64(tagBits)
}

// rcEnergy is the energy of updating one small retention counter.
const rcEnergy = 0.05e-12 // 0.05 pJ

// pipelineCycles is the array cycle time: banks accept a new pipelined
// access this often, independent of the access latency. Write pulses are
// the exception — an STT-RAM write occupies its subarray for the whole
// pulse, which is exactly the bandwidth problem the paper attacks.
const pipelineCycles = 2

// writeOccupancy returns how long a write blocks its array: the pipeline
// slot plus the portion of the write latency that exceeds a read (the
// write pulse). For SRAM (symmetric timing) this degenerates to the
// pipeline cycle time.
func writeOccupancy(readCy, writeCy int64) int64 {
	occ := pipelineCycles + (writeCy - readCy)
	if occ < pipelineCycles {
		occ = pipelineCycles
	}
	return occ
}

// subArrays is the number of independently accessible subarrays per
// data array: a write pulse occupies one subarray, not the whole bank.
// The paper relies on this ("the HR part should be sufficiently banked to
// enable migration of multiple data blocks").
const subArrays = 4

// ports tracks per-subarray availability of one data array.
type ports [subArrays]int64

// acquire reserves the subarray holding addr from cycle at for occ cycles
// and returns when the access begins.
func (p *ports) acquire(addr uint64, lineBytes int, at, occ int64) int64 {
	// lineBytes is a power of two (enforced by cache.New), so the line
	// index is a shift, not a divide.
	i := (addr >> uint(bits.TrailingZeros(uint(lineBytes)))) & (subArrays - 1)
	start := at
	if p[i] > start {
		start = p[i]
	}
	p[i] = start + occ
	return start
}

// reset clears all subarray reservations.
func (p *ports) reset() { *p = ports{} }

// mshr tracks in-flight line fills so misses to the same line merge onto
// one DRAM access instead of fetching it repeatedly. The table is a small
// open-addressing hash table (linear probing, tombstone deletion) rather
// than a Go map: the bank probes it on every access, and the custom
// layout makes lookup a few cache lines with no hashing indirection.
type mshr struct {
	slots    []mshrSlot // power-of-two sized; nil until the first insert
	spare    []mshrSlot // retired table kept for the next rebuild
	live     int        // occupied, non-tombstone slots
	dead     int        // tombstones awaiting a rebuild
	lastSeen int64      // latest lookup cycle, for expiry sweeps
}

type mshrSlot struct {
	addr  uint64
	done  int64
	state uint8 // 0 empty, 1 full, 2 tombstone
}

// mshrMinCap is the initial table size; small because most banks in the
// short-lived evaluation runs only ever hold a handful of in-flight
// fills.
const mshrMinCap = 16

func newMSHR() *mshr {
	return &mshr{}
}

func mshrHash(addr uint64) uint64 {
	return addr * 0x9E3779B97F4A7C15
}

// lookup returns the completion cycle of an in-flight fill for addr, if
// any, pruning completed entries opportunistically.
func (m *mshr) lookup(addr uint64, now int64) (int64, bool) {
	m.lastSeen = now
	if m.live == 0 {
		return 0, false
	}
	mask := uint64(len(m.slots) - 1)
	for i := mshrHash(addr) >> 33 & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.state == 0 {
			return 0, false
		}
		if s.state == 1 && s.addr == addr {
			if s.done <= now {
				s.state = 2 // expired: tombstone it
				m.live--
				m.dead++
				return 0, false
			}
			return s.done, true
		}
	}
}

// insert records a new in-flight fill. The caller has already concluded
// (via lookup) that addr is absent.
func (m *mshr) insert(addr uint64, done int64) {
	if (m.live+m.dead+1)*4 > len(m.slots)*3 {
		m.rebuild()
	}
	mask := uint64(len(m.slots) - 1)
	for i := mshrHash(addr) >> 33 & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.state != 1 {
			if s.state == 2 {
				m.dead--
			}
			*s = mshrSlot{addr: addr, done: done, state: 1}
			m.live++
			return
		}
		if s.addr == addr {
			s.done = done
			return
		}
	}
}

// mshrMaxCap is the table size past which rebuilds stop growing the
// table for every entry it holds: 4096 slots (96 KiB).
const mshrMaxCap = 1 << 12

// rebuild rehashes the live entries into a fresh table, dropping
// tombstones and entries that completed by the latest lookup. A bank
// looks up at strictly increasing cycles (its front end issues one
// request per cycle, and a miss always pays the same probe cost), so
// such an entry is absent for every later lookup too: dropping it
// changes no observable behavior.
//
// Most entries are such fills, completed without ever being looked up
// again. Sizing the new table for every entry at half load doubles it
// at each rebuild, which keeps rebuilds rare. Past mshrMaxCap it is
// sized for the fills still in flight instead, and never shrinks, so
// the table stops growing with the number of misses a bank has seen
// and the spare slab is reused.
func (m *mshr) rebuild() {
	n := m.live
	if (n+1)*4 > mshrMaxCap*2 {
		n = 0
		for _, s := range m.slots {
			if s.state == 1 && s.done > m.lastSeen {
				n++
			}
		}
	}
	capNew := mshrMinCap
	for capNew*2 < (n+1)*4 { // target <= 50% load after rebuild
		capNew *= 2
	}
	if n < m.live {
		capNew = max(capNew, len(m.slots))
	}
	old := m.slots
	if cap(m.spare) >= capNew {
		m.slots = m.spare[:capNew]
		clear(m.slots)
	} else {
		m.slots = make([]mshrSlot, capNew)
	}
	m.spare = old[:0]
	m.live = 0
	m.dead = 0
	mask := uint64(capNew - 1)
	for _, s := range old {
		if s.state != 1 || s.done <= m.lastSeen {
			continue
		}
		for i := mshrHash(s.addr) >> 33 & mask; ; i = (i + 1) & mask {
			if m.slots[i].state == 0 {
				m.slots[i] = s
				m.live++
				break
			}
		}
	}
}

// reset clears all entries, keeping the larger slab as the spare so a
// reset bank re-fills without re-growing from scratch.
func (m *mshr) reset() {
	if cap(m.slots) > cap(m.spare) {
		m.spare = m.slots[:0]
	}
	m.slots = nil
	m.live = 0
	m.dead = 0
	m.lastSeen = 0
}
