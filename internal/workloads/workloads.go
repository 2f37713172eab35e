// Package workloads is the repo's stand-in for the paper's CUDA benchmark
// suites (the GPGPU-Sim bundled kernels, Rodinia, and Parboil): fourteen
// named synthetic kernels whose memory behaviour at the L2 — write
// intensity, write-working-set size and skew, rewrite intervals, reuse,
// streaming, register pressure, and grid phasing — is parameterized to
// match what the paper reports per benchmark (the write-COV spread of
// Fig. 3, the 0–63% write mix, and the region grouping of Fig. 8a).
//
// Every stream is generated by a per-warp xorshift PRNG seeded from the
// spec seed and the warp index, so simulations are fully deterministic.
package workloads

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"sttllc/internal/gpu"
)

// Region classifies benchmarks by which added resource helps them,
// matching the grouping of Fig. 8a.
type Region int

const (
	// RegionInsensitive gains from neither larger L2 nor larger RF.
	RegionInsensitive Region = 1
	// RegionRegisterBound gains from a larger register file.
	RegionRegisterBound Region = 2
	// RegionBoth is cache-friendly and register-bound.
	RegionBoth Region = 3
	// RegionCacheBound gains from a larger L2.
	RegionCacheBound Region = 4
)

// Spec parameterizes one synthetic kernel.
type Spec struct {
	Name        string
	Region      Region
	Description string

	// Instruction mix.
	MemFrac   float64 // fraction of instructions that access memory
	WriteFrac float64 // fraction of memory ops that are writes
	LocalFrac float64 // fraction of memory ops on thread-local data
	ConstFrac float64 // fraction of memory ops fetching constant data
	TexFrac   float64 // fraction of memory ops fetching texture data

	// Global address behaviour.
	FootprintBytes uint64  // read data set
	WWSBytes       uint64  // write working set per grid
	WriteHotFrac   float64 // fraction of writes concentrated on WWS/16 (skew -> COV)
	StreamFrac     float64 // fraction of reads that stream sequentially per warp
	RereadFrac     float64 // fraction of reads re-touching the warp's recent lines

	// Parallelism shape.
	RegsPerThread int
	// ThreadsPerBlock is the kernel's thread-block size; occupancy is
	// block-granular, so it decides whether a register-file bonus
	// translates into extra resident warps.
	ThreadsPerBlock int
	WarpsPerSM      int // warp jobs available per SM (app TLP)
	InstrPerWarp    int
	Grids           int     // sequential grid phases
	EndWriteBurst   float64 // extra write bias in the tail of each grid

	Seed uint64
}

// lineBytes is the generation granularity: GPU memory coalescing makes
// warp accesses line-sized at the L1 (Table 2: 128B L1 lines).
const lineBytes = 128

// localBase places thread-local data far above global data; constBase
// and texBase are the constant and texture segments.
const (
	localBase = uint64(1) << 40
	constBase = uint64(2) << 40
	texBase   = uint64(3) << 40
	// constBytes is the kernel-parameter table: bigger than one SM's
	// 8KB constant cache so cold misses reach the L2.
	constBytes = uint64(16) << 10
	// texBytes is the texture working set per warp group.
	texBytes = uint64(1) << 20
)

// All returns the benchmark suite in a stable order.
func All() []Spec {
	specs := []Spec{
		{
			Name: "bfs", Region: RegionCacheBound,
			Description: "breadth-first search: irregular reads, skewed frontier writes",
			MemFrac:     0.20, WriteFrac: 0.30, LocalFrac: 0.05, ConstFrac: 0.04,
			FootprintBytes: 2560 << 10, WWSBytes: 256 << 10, WriteHotFrac: 0.80,
			StreamFrac: 0.20, RereadFrac: 0.40,
			RegsPerThread: 24, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 3,
			EndWriteBurst: 0.3, Seed: 0xB5,
		},
		{
			Name: "kmeans", Region: RegionBoth,
			Description: "clustering: streaming points, hot centroid writes, high regs",
			MemFrac:     0.20, WriteFrac: 0.25, LocalFrac: 0.05, ConstFrac: 0.05, TexFrac: 0.08,
			FootprintBytes: 2 << 20, WWSBytes: 128 << 10, WriteHotFrac: 0.70,
			StreamFrac: 0.55, RereadFrac: 0.30,
			RegsPerThread: 44, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 3,
			EndWriteBurst: 0.4, Seed: 0x4B,
		},
		{
			Name: "cfd", Region: RegionCacheBound,
			Description: "unstructured-grid solver: large footprint, even writes",
			MemFrac:     0.20, WriteFrac: 0.35, LocalFrac: 0.08, ConstFrac: 0.04,
			FootprintBytes: 4 << 20, WWSBytes: 512 << 10, WriteHotFrac: 0.10,
			StreamFrac: 0.70, RereadFrac: 0.20,
			RegsPerThread: 32, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 2,
			EndWriteBurst: 0.2, Seed: 0xCF,
		},
		{
			Name: "stencil", Region: RegionCacheBound,
			Description: "7-point stencil: streaming, write-heavy, uniform writes",
			MemFrac:     0.20, WriteFrac: 0.45, LocalFrac: 0.02, ConstFrac: 0.03,
			FootprintBytes: 6 << 20, WWSBytes: 512 << 10, WriteHotFrac: 0.05,
			StreamFrac: 0.90, RereadFrac: 0.05,
			RegsPerThread: 28, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 2,
			EndWriteBurst: 0.1, Seed: 0x57,
		},
		{
			Name: "pathfinder", Region: RegionCacheBound,
			Description: "dynamic programming over rows: streaming with row reuse",
			MemFrac:     0.18, WriteFrac: 0.30, LocalFrac: 0.05, ConstFrac: 0.03,
			FootprintBytes: 1536 << 10, WWSBytes: 256 << 10, WriteHotFrac: 0.30,
			StreamFrac: 0.75, RereadFrac: 0.20,
			RegsPerThread: 24, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 3,
			EndWriteBurst: 0.3, Seed: 0xDF,
		},
		{
			Name: "streamcluster", Region: RegionCacheBound,
			Description: "online clustering: large streaming reads, modest writes",
			MemFrac:     0.20, WriteFrac: 0.15, LocalFrac: 0.05, ConstFrac: 0.04,
			FootprintBytes: 2 << 20, WWSBytes: 128 << 10, WriteHotFrac: 0.40,
			StreamFrac: 0.65, RereadFrac: 0.25,
			RegsPerThread: 28, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 2,
			EndWriteBurst: 0.2, Seed: 0x5C,
		},
		{
			Name: "mum", Region: RegionCacheBound,
			Description: "sequence matching: pointer chasing, near-zero writes",
			MemFrac:     0.20, WriteFrac: 0.03, LocalFrac: 0.02, ConstFrac: 0.05, TexFrac: 0.10,
			FootprintBytes: 3 << 20, WWSBytes: 64 << 10, WriteHotFrac: 0.50,
			StreamFrac: 0.25, RereadFrac: 0.45,
			RegsPerThread: 24, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 1,
			EndWriteBurst: 0.1, Seed: 0x3A,
		},
		{
			Name: "nw", Region: RegionCacheBound,
			Description: "Needleman-Wunsch: diagonal wavefront with reuse",
			MemFrac:     0.20, WriteFrac: 0.30, LocalFrac: 0.05, ConstFrac: 0.03,
			FootprintBytes: 512 << 10, WWSBytes: 128 << 10, WriteHotFrac: 0.25,
			StreamFrac: 0.60, RereadFrac: 0.30,
			RegsPerThread: 28, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 2,
			EndWriteBurst: 0.3, Seed: 0x17,
		},
		{
			Name: "backprop", Region: RegionInsensitive,
			Description: "neural-net training layer: compute-bound, small data",
			MemFrac:     0.10, WriteFrac: 0.20, LocalFrac: 0.10, ConstFrac: 0.06,
			FootprintBytes: 224 << 10, WWSBytes: 32 << 10, WriteHotFrac: 0.30,
			StreamFrac: 0.60, RereadFrac: 0.30,
			RegsPerThread: 20, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 2,
			EndWriteBurst: 0.2, Seed: 0xB9,
		},
		{
			Name: "hotspot", Region: RegionInsensitive,
			Description: "thermal grid: footprint fits even the baseline L2",
			MemFrac:     0.14, WriteFrac: 0.25, LocalFrac: 0.05, ConstFrac: 0.05, TexFrac: 0.06,
			FootprintBytes: 192 << 10, WWSBytes: 32 << 10, WriteHotFrac: 0.20,
			StreamFrac: 0.75, RereadFrac: 0.20,
			RegsPerThread: 21, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 2,
			EndWriteBurst: 0.2, Seed: 0x99,
		},
		{
			Name: "lud", Region: RegionRegisterBound,
			Description: "LU decomposition: register-hungry tiles over streamed panels",
			MemFrac:     0.15, WriteFrac: 0.20, LocalFrac: 0.10, ConstFrac: 0.04,
			FootprintBytes: 8 << 20, WWSBytes: 64 << 10, WriteHotFrac: 0.35,
			StreamFrac: 0.85, RereadFrac: 0.05,
			RegsPerThread: 63, ThreadsPerBlock: 192, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 2,
			EndWriteBurst: 0.3, Seed: 0x1D,
		},
		{
			Name: "mri-gridding", Region: RegionRegisterBound,
			Description: "MRI gridding: register-bound with scattered output writes",
			MemFrac:     0.14, WriteFrac: 0.45, LocalFrac: 0.10, ConstFrac: 0.05, TexFrac: 0.12,
			FootprintBytes: 6 << 20, WWSBytes: 128 << 10, WriteHotFrac: 0.60,
			StreamFrac: 0.60, RereadFrac: 0.10,
			RegsPerThread: 57, ThreadsPerBlock: 192, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 2,
			EndWriteBurst: 0.4, Seed: 0x96,
		},
		{
			Name: "tpacf", Region: RegionRegisterBound,
			Description: "angular correlation: huge blocks, the RF bonus cannot fit one more",
			MemFrac:     0.15, WriteFrac: 0.08, LocalFrac: 0.05, ConstFrac: 0.06,
			FootprintBytes: 8 << 20, WWSBytes: 32 << 10, WriteHotFrac: 0.75,
			StreamFrac: 0.50, RereadFrac: 0.15,
			RegsPerThread: 40, ThreadsPerBlock: 512, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 1,
			EndWriteBurst: 0.1, Seed: 0x7F,
		},
		{
			Name: "sradv2", Region: RegionBoth,
			Description: "speckle-reducing diffusion: cache-friendly and reg-bound",
			MemFrac:     0.20, WriteFrac: 0.35, LocalFrac: 0.05, ConstFrac: 0.04, TexFrac: 0.10,
			FootprintBytes: 640 << 10, WWSBytes: 128 << 10, WriteHotFrac: 0.20,
			StreamFrac: 0.75, RereadFrac: 0.15,
			RegsPerThread: 43, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 2,
			EndWriteBurst: 0.3, Seed: 0x5D,
		},
		{
			Name: "sgemm", Region: RegionInsensitive,
			Description: "dense matrix multiply: tiled reuse, tiny L2 pressure",
			MemFrac:     0.18, WriteFrac: 0.08, LocalFrac: 0.06, ConstFrac: 0.04,
			FootprintBytes: 256 << 10, WWSBytes: 64 << 10, WriteHotFrac: 0.15,
			StreamFrac: 0.60, RereadFrac: 0.35,
			RegsPerThread: 32, ThreadsPerBlock: 128, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 1,
			EndWriteBurst: 0.2, Seed: 0x6E,
		},
		{
			Name: "spmv", Region: RegionCacheBound,
			Description: "sparse matrix-vector: irregular gathers, near-zero writes",
			MemFrac:     0.25, WriteFrac: 0.05, LocalFrac: 0.03, ConstFrac: 0.03,
			FootprintBytes: 2 << 20, WWSBytes: 64 << 10, WriteHotFrac: 0.50,
			StreamFrac: 0.30, RereadFrac: 0.25,
			RegsPerThread: 20, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 1,
			EndWriteBurst: 0.2, Seed: 0x5B,
		},
		{
			Name: "histo", Region: RegionInsensitive,
			Description: "histogramming: streamed input, extremely hot bin writes",
			MemFrac:     0.15, WriteFrac: 0.50, LocalFrac: 0.02, ConstFrac: 0.03,
			FootprintBytes: 1536 << 10, WWSBytes: 32 << 10, WriteHotFrac: 0.90,
			StreamFrac: 0.80, RereadFrac: 0.05,
			RegsPerThread: 24, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 1,
			EndWriteBurst: 0.1, Seed: 0x41,
		},
		{
			Name: "sad", Region: RegionCacheBound,
			Description: "sum-of-absolute-differences: video blocks with texture reuse",
			MemFrac:     0.22, WriteFrac: 0.15, LocalFrac: 0.05, ConstFrac: 0.03, TexFrac: 0.08,
			FootprintBytes: 1 << 20, WWSBytes: 128 << 10, WriteHotFrac: 0.25,
			StreamFrac: 0.70, RereadFrac: 0.20,
			RegsPerThread: 28, ThreadsPerBlock: 192, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 2,
			EndWriteBurst: 0.3, Seed: 0xAD,
		},
		{
			Name: "lps", Region: RegionBoth,
			Description: "3D Laplace solver: cache-friendly stencil with high registers",
			MemFrac:     0.30, WriteFrac: 0.30, LocalFrac: 0.05, ConstFrac: 0.03,
			FootprintBytes: 512 << 10, WWSBytes: 128 << 10, WriteHotFrac: 0.15,
			StreamFrac: 0.70, RereadFrac: 0.20,
			RegsPerThread: 44, ThreadsPerBlock: 256, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 2,
			EndWriteBurst: 0.3, Seed: 0x1A,
		},
		{
			Name: "heartwall", Region: RegionInsensitive,
			Description: "medical image tracking: small working set, texture sampling",
			MemFrac:     0.15, WriteFrac: 0.10, LocalFrac: 0.08, ConstFrac: 0.05, TexFrac: 0.06,
			FootprintBytes: 224 << 10, WWSBytes: 32 << 10, WriteHotFrac: 0.30,
			StreamFrac: 0.55, RereadFrac: 0.30,
			RegsPerThread: 28, ThreadsPerBlock: 128, WarpsPerSM: 32, InstrPerWarp: 2400, Grids: 2,
			EndWriteBurst: 0.2, Seed: 0x8A,
		},
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// ByName returns the named benchmark spec.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns all benchmark names in suite order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// Scale returns a copy of the spec with the per-warp instruction count
// scaled by f (minimum 64 instructions), for fast test/bench runs.
func (s Spec) Scale(f float64) Spec {
	n := int(float64(s.InstrPerWarp) * f)
	if n < 64 {
		n = 64
	}
	s.InstrPerWarp = n
	return s
}

// Validate checks a spec's parameters for coherence.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workloads: empty name")
	case s.MemFrac < 0 || s.MemFrac > 1:
		return fmt.Errorf("workloads %s: MemFrac %v out of [0,1]", s.Name, s.MemFrac)
	case s.WriteFrac < 0 || s.WriteFrac > 1:
		return fmt.Errorf("workloads %s: WriteFrac %v out of [0,1]", s.Name, s.WriteFrac)
	case s.LocalFrac < 0 || s.LocalFrac > 1:
		return fmt.Errorf("workloads %s: LocalFrac %v out of [0,1]", s.Name, s.LocalFrac)
	case s.ConstFrac < 0 || s.TexFrac < 0 || s.LocalFrac+s.ConstFrac+s.TexFrac > 1:
		return fmt.Errorf("workloads %s: local+const+tex fractions exceed 1", s.Name)
	case s.FootprintBytes < lineBytes:
		return fmt.Errorf("workloads %s: footprint too small", s.Name)
	case s.WWSBytes < lineBytes:
		return fmt.Errorf("workloads %s: WWS too small", s.Name)
	case s.RegsPerThread <= 0 || s.WarpsPerSM <= 0 || s.InstrPerWarp <= 0 || s.Grids <= 0:
		return fmt.Errorf("workloads %s: non-positive shape parameter", s.Name)
	case s.ThreadsPerBlock < 32 || s.ThreadsPerBlock%32 != 0:
		return fmt.Errorf("workloads %s: ThreadsPerBlock %d must be a positive multiple of 32", s.Name, s.ThreadsPerBlock)
	}
	return nil
}

// Model returns the deterministic kernel model for the spec.
func (s Spec) Model() gpu.KernelModel {
	return &model{k: kernel{spec: s}}
}

// model is a kernel model: the per-kernel constants every warp stream
// of the kernel shares, and the arena its streams come from, in the one
// allocation Model makes. A model is driven by one simulator goroutine,
// so it needs no locking.
type model struct {
	k     kernel
	built bool // k's derived fields are set (by the first NewWarp)
	// chunk is the unused tail of the current stream slab. Long runs
	// spawn streams by the tens of thousands (one per warp launch), and
	// carving them 64 at a time keeps the object count — and with it GC
	// scan time — out of the simulation hot path.
	chunk []stream
}

// kernel holds what a kernel's warp streams share: the spec and the
// constants derived from it once per kernel rather than once per warp.
type kernel struct {
	spec Spec
	// Grid-position constants: perGrid is the instructions per grid,
	// burstCut the in-grid offset where the end-of-grid write burst
	// begins. perGrid == 0 means the spec is degenerate (Grids <= 0) and
	// the divide-on-access fallback is used instead.
	perGrid  int
	burstCut int
	// Magic divisors for the run-time line counts the address pickers
	// take remainders against (the texture/constant segment sizes are
	// compile-time constants and need none).
	footDiv mdiv // footprint lines
	wwsDiv  mdiv // write-working-set lines
	hotDiv  mdiv // hot 1/16th of the WWS
	// Integer decision thresholds, precomputed from the spec fractions:
	// rng.float() < c compares identically to rng.bits53() < thresh(c)
	// (both sides are exact), saving the int→float conversion on every
	// instruction. Cumulative where the reference compared cumulative
	// fractions.
	memT        uint64 // MemFrac
	localT      uint64 // LocalFrac
	lcT         uint64 // LocalFrac+ConstFrac
	lctT        uint64 // LocalFrac+ConstFrac+TexFrac
	writeT      uint64 // WriteFrac
	writeBurstT uint64 // min(1, WriteFrac+EndWriteBurst)
	hotT        uint64 // WriteHotFrac
	streamT     uint64 // StreamFrac
	srT         uint64 // StreamFrac+RereadFrac
}

// build derives k's constants from its spec. A degenerate write working
// set panics here, at the first warp launch, as it always has.
func (k *kernel) build() {
	s := &k.spec
	k.footDiv = newMdiv(s.FootprintBytes / lineBytes)
	wwsLines := s.WWSBytes / lineBytes
	k.wwsDiv = newMdiv(wwsLines)
	hot := wwsLines / 16
	if hot == 0 {
		hot = 1
	}
	k.hotDiv = newMdiv(hot)
	k.memT = thresh(s.MemFrac)
	k.localT = thresh(s.LocalFrac)
	k.lcT = thresh(s.LocalFrac + s.ConstFrac)
	k.lctT = thresh(s.LocalFrac + s.ConstFrac + s.TexFrac)
	k.writeT = thresh(s.WriteFrac)
	wb := s.WriteFrac + s.EndWriteBurst
	if wb > 1 {
		wb = 1
	}
	k.writeBurstT = thresh(wb)
	k.hotT = thresh(s.WriteHotFrac)
	k.streamT = thresh(s.StreamFrac)
	k.srT = thresh(s.StreamFrac + s.RereadFrac)
	if s.Grids > 0 && s.InstrPerWarp > 0 {
		pg := s.InstrPerWarp / s.Grids
		if pg == 0 {
			pg = s.InstrPerWarp
		}
		k.perGrid = pg
		// burstCut is the first in-grid position the reference
		// expression float64(pos)/float64(pg) > 0.9 classifies as the
		// end-of-grid write burst, found by evaluating that exact
		// expression so rounding behavior carries over unchanged.
		cut := int(0.9 * float64(pg))
		if cut > pg {
			cut = pg
		}
		for cut > 0 && float64(cut-1)/float64(pg) > 0.9 {
			cut--
		}
		for cut < pg && float64(cut)/float64(pg) <= 0.9 {
			cut++
		}
		k.burstCut = cut
	}
}

// NewWarp implements gpu.KernelModel.
func (m *model) NewWarp(warpIndex int) gpu.WarpStream {
	k := &m.k
	warp := uint64(warpIndex)
	// Each warp streams through its own slice of the footprint (and of
	// the texture segment). A footprint under one line divides by zero
	// here, before anything else, as it always has.
	streamPos := (warp * 977) % (k.spec.FootprintBytes / lineBytes)
	if !m.built {
		k.build()
		m.built = true
	}
	if len(m.chunk) == 0 {
		m.chunk = make([]stream, 64)
	}
	st := &m.chunk[0]
	m.chunk = m.chunk[1:]
	*st = stream{
		k:         k,
		rng:       newXorshift(k.spec.Seed*0x9E3779B97F4A7C15 + warp*0xBF58476D1CE4E5B9 + 1),
		warp:      warp,
		streamPos: streamPos,
		texPos:    (warp * 1031) % (texBytes / lineBytes),
	}
	return st
}

// stream generates one warp's instructions. It holds only the warp's own
// state; everything derived from the spec lives in the kernel block all
// of the kernel's warps point at, so an ALU Next touches one cache line
// of per-warp state (the fields up to gridPos) plus the shared block.
type stream struct {
	k     *kernel
	rng   xorshift
	count int
	// grid/gridPos are the current instruction's grid index and offset
	// within it, carried incrementally so the hot path avoids the
	// per-access divisions.
	grid      int
	gridPos   int
	warp      uint64
	streamPos uint64 // line index within footprint
	texPos    uint64 // line index within the texture segment
	recent    [4]uint64
	recentN   int
}

// thresh maps a probability c to the integer threshold t such that for
// every 53-bit draw rf, float64(rf)*2^-53 < c  ⟺  rf < t. Both c*2^53
// (a power-of-two scaling) and the draw's float conversion are exact, so
// the equivalence is exact, not approximate.
func thresh(c float64) uint64 {
	t := math.Ceil(c * (1 << 53))
	if t <= 0 {
		return 0
	}
	if t >= 1<<53 {
		return 1 << 53 // above every draw: always true for <
	}
	return uint64(t)
}

// Next implements gpu.WarpStream.
func (st *stream) Next() (gpu.Instr, bool) {
	k := st.k
	if st.count >= k.spec.InstrPerWarp {
		return gpu.Instr{}, false
	}
	i := st.count
	st.count++
	grid, pos := st.grid, st.gridPos
	if k.perGrid > 0 {
		st.gridPos++
		if st.gridPos == k.perGrid {
			st.gridPos = 0
			st.grid++
		}
	}

	if st.rng.bits53() >= k.memT {
		return gpu.Instr{Kind: gpu.InstrALU}, true
	}

	// Memory instruction: pick the address space.
	r := st.rng.bits53()
	switch {
	case r < k.localT:
		return st.localAccess()
	case r < k.lcT:
		return st.constAccess()
	case r < k.lctT:
		return st.texAccess()
	}
	// Global access: the incrementally tracked grid position replaces
	// the divisions the reference performed here.
	s := &k.spec
	burst := pos >= k.burstCut
	if k.perGrid == 0 {
		// Degenerate spec (Grids <= 0): keep the reference arithmetic.
		perGrid := s.InstrPerWarp / s.Grids
		if perGrid == 0 {
			perGrid = s.InstrPerWarp
		}
		grid = i / perGrid
		pos = i % perGrid
		burst = float64(pos)/float64(perGrid) > 0.9
	}
	if grid >= s.Grids {
		grid = s.Grids - 1
	}
	writeT := k.writeT
	if burst {
		// Grids write their results near the end of their execution
		// (the observation that justifies the threshold of 1).
		writeT = k.writeBurstT
	}
	if st.rng.bits53() < writeT {
		return gpu.Instr{Kind: gpu.InstrStore, Addr: st.writeAddr(grid)}, true
	}
	return gpu.Instr{Kind: gpu.InstrLoad, Addr: st.readAddr()}, true
}

// localAccess touches the warp's private spill space. Spills are hot (a
// couple of lines per warp), so local traffic mostly stays in the L1 —
// only eviction pressure pushes it to the L2.
func (st *stream) localAccess() (gpu.Instr, bool) {
	line := st.rng.next() % 2
	addr := localBase + st.warp*(2*lineBytes) + line*lineBytes
	kind := gpu.InstrLoad
	if st.rng.bits53() < thresh(0.5) {
		kind = gpu.InstrStore
	}
	return gpu.Instr{Kind: kind, Addr: addr, Space: gpu.SpaceLocal}, true
}

// constAccess fetches from the shared kernel-parameter table: a small
// hot region, almost always resident in the per-SM constant cache.
func (st *stream) constAccess() (gpu.Instr, bool) {
	line := st.rng.next() % (constBytes / lineBytes)
	return gpu.Instr{Kind: gpu.InstrLoad, Addr: constBase + line*lineBytes, Space: gpu.SpaceConst}, true
}

// texAccess streams through the texture segment with 2D-ish locality:
// mostly sequential per warp with occasional jumps.
func (st *stream) texAccess() (gpu.Instr, bool) {
	if st.rng.bits53() < thresh(0.8) {
		st.texPos = (st.texPos + 1) % (texBytes / lineBytes)
	} else {
		st.texPos = st.rng.next() % (texBytes / lineBytes)
	}
	return gpu.Instr{Kind: gpu.InstrLoad, Addr: texBase + st.texPos*lineBytes, Space: gpu.SpaceTex}, true
}

// writeAddr picks a store target in the current grid's write working set,
// with WriteHotFrac of stores concentrated on a hot 1/16th (this skew is
// what produces the inter-/intra-set write variation of Fig. 3).
func (st *stream) writeAddr(grid int) uint64 {
	k := st.k
	base := k.spec.FootprintBytes + uint64(grid)*k.spec.WWSBytes
	var line uint64
	if st.rng.bits53() < k.hotT {
		line = k.hotDiv.mod(st.rng.next())
	} else {
		line = k.wwsDiv.mod(st.rng.next())
	}
	return base + line*lineBytes
}

// readAddr picks a load target: sequential streaming, recent-line reuse,
// or uniform over the footprint.
func (st *stream) readAddr() uint64 {
	k := st.k
	r := st.rng.bits53()
	var addr uint64
	switch {
	case r < k.streamT:
		// streamPos stays below footLines, so the advance wraps at most
		// once: a compare replaces the remainder.
		if st.streamPos++; st.streamPos == k.footDiv.n {
			st.streamPos = 0
		}
		addr = st.streamPos * lineBytes
	case r < k.srT && st.recentN > 0:
		if st.recentN == len(st.recent) {
			addr = st.recent[st.rng.next()&uint64(len(st.recent)-1)]
		} else {
			addr = st.recent[st.rng.next()%uint64(st.recentN)]
		}
	default:
		addr = k.footDiv.mod(st.rng.next()) * lineBytes
	}
	st.recent[st.count%len(st.recent)] = addr
	if st.recentN < len(st.recent) {
		st.recentN++
	}
	return addr
}

// mdiv is a precomputed magic-number divisor: mod computes x % n with a
// multiply-high instead of the hardware divide, exactly (the estimate
// floor(x*⌊2^64/n⌋ / 2^64) is off by at most one, fixed up with a single
// conditional subtract). The address generators take a remainder per
// memory instruction against run-time line counts; this keeps those off
// the 64-bit divider.
type mdiv struct {
	n     uint64
	magic uint64 // ⌊2^64 / n⌋; 0 marks the pow2 fast path
	mask  uint64 // n-1 when n is a power of two
}

func newMdiv(n uint64) mdiv {
	if n == 0 {
		panic("workloads: zero divisor")
	}
	if n&(n-1) == 0 {
		return mdiv{n: n, mask: n - 1}
	}
	return mdiv{n: n, magic: ^uint64(0) / n}
}

func (d mdiv) mod(x uint64) uint64 {
	if d.magic == 0 {
		return x & d.mask
	}
	q, _ := bits.Mul64(x, d.magic)
	rem := x - q*d.n
	if rem >= d.n {
		rem -= d.n
	}
	return rem
}

// xorshift is a xorshift64* PRNG: fast, deterministic, zero-allocation.
type xorshift uint64

func newXorshift(seed uint64) xorshift {
	if seed == 0 {
		seed = 0x2545F4914F6CDD1D
	}
	return xorshift(seed)
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v >> 12
	v ^= v << 25
	v ^= v >> 27
	*x = xorshift(v)
	return v * 0x2545F4914F6CDD1D
}

// float returns a uniform float64 in [0, 1). Multiplying by the exact
// power-of-two reciprocal rounds identically to dividing by 2^53.
func (x *xorshift) float() float64 {
	return float64(x.next()>>11) * (1.0 / float64(1<<53))
}

// bits53 returns the 53-bit draw underlying float: float() ==
// float64(bits53()) * 2^-53 exactly, so integer comparison against
// thresh(c) decides float() < c without the conversion.
func (x *xorshift) bits53() uint64 {
	return x.next() >> 11
}

// App is a multi-kernel application: kernels launch sequentially and the
// L2 contents persist between them, so a later kernel can reuse (or be
// polluted by) an earlier kernel's data — "each grid uses the results of
// the previous grid". Consumer kernels read the producer's write working
// set by aliasing their read footprint onto it.
type App struct {
	Name        string
	Description string
	Kernels     []Spec
	// bench marks the one-kernel application Single makes of a
	// benchmark. Unexported, so it stays out of App.Hash's encoding.
	bench bool
}

// Single is the application a benchmark runs as: its one kernel under
// the benchmark's name. It keeps the benchmark's identity — Hash is the
// spec's own content address — so a benchmark recording names its
// workload the same way however it was made. A one-kernel App built any
// other way (a generator draw, say) is an application and hashes as one.
func Single(s Spec) App {
	return SingleIn(&[1]Spec{s})
}

// SingleIn is Single over storage the caller owns: the application's
// kernel is k[0], aliased rather than copied, so a caller that keeps k
// inside an object it allocates anyway makes the application without
// an allocation of its own.
func SingleIn(k *[1]Spec) App {
	return App{Name: k[0].Name, Kernels: k[:], bench: true}
}

// Apps returns composite applications built from suite kernels. Each
// consumer kernel's footprint is positioned so it overlaps the
// producer's output region, making inter-kernel L2 reuse visible.
func Apps() []App {
	producerConsumer := func(name, producer, consumer string) App {
		p, ok := ByName(producer)
		if !ok {
			panic("workloads: unknown producer " + producer)
		}
		c, ok := ByName(consumer)
		if !ok {
			panic("workloads: unknown consumer " + consumer)
		}
		// The consumer reads a footprint covering the producer's WWS:
		// its footprint includes [p.FootprintBytes, +p.WWS*grids).
		c.FootprintBytes = p.FootprintBytes + uint64(p.Grids)*p.WWSBytes
		return App{
			Name:        name,
			Description: producer + " writes, " + consumer + " consumes its output",
			Kernels:     []Spec{p, c},
		}
	}
	return []App{
		producerConsumer("srad-pipeline", "sradv2", "nw"),
		producerConsumer("cluster-pipeline", "kmeans", "streamcluster"),
		{
			Name:        "iterative-stencil",
			Description: "the same stencil kernel launched twice (iterative solver)",
			Kernels: func() []Spec {
				s, _ := ByName("stencil")
				return []Spec{s, s}
			}(),
		},
	}
}

// AppByName returns the named application.
func AppByName(name string) (App, bool) {
	for _, a := range Apps() {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}
