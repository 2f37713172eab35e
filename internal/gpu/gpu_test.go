package gpu

import (
	"math"
	"testing"
)

// scriptStream replays a fixed instruction list.
type scriptStream struct {
	instrs []Instr
	pos    int
}

func (s *scriptStream) Next() (Instr, bool) {
	if s.pos >= len(s.instrs) {
		return Instr{}, false
	}
	in := s.instrs[s.pos]
	s.pos++
	return in, true
}

// scriptModel hands every warp the same script.
type scriptModel struct{ instrs []Instr }

func (m scriptModel) NewWarp(int) WarpStream {
	return &scriptStream{instrs: m.instrs}
}

// fixedMem answers every request after a fixed latency and records calls.
type fixedMem struct {
	latency int64
	calls   []struct {
		Now   int64
		Addr  uint64
		Write bool
	}
}

func (m *fixedMem) Access(now int64, smID int, addr uint64, write bool) int64 {
	m.calls = append(m.calls, struct {
		Now   int64
		Addr  uint64
		Write bool
	}{now, addr, write})
	return now + m.latency
}

func alu(n int) []Instr {
	out := make([]Instr, n)
	return out
}

func testCfg() SMConfig {
	cfg := DefaultSMConfig()
	cfg.L1Bytes = 1 << 10
	cfg.L1Ways = 2
	cfg.L1LineBytes = 64
	return cfg
}

func TestResidentWarps(t *testing.T) {
	cfg := DefaultSMConfig()
	tests := []struct {
		regs int
		tpb  int
		want int
	}{
		{0, 32, 48},   // no register pressure: scheduler limit
		{20, 32, 48},  // 32768/(20*32)=51 -> capped at 48
		{63, 32, 16},  // heavy kernel: RF-bound, warp-granular
		{40, 32, 25},  // 32768/1280
		{4000, 32, 1}, // absurd demand still runs one warp
		// Block granularity: 63 regs * 192 threads = 12096 regs/block;
		// 32768/12096 = 2 blocks of 6 warps.
		{63, 192, 12},
		// Huge blocks: 40 regs * 512 threads = 20480; one block of 16.
		{40, 512, 16},
		// tpb below a warp clamps to one warp per block.
		{63, 8, 16},
	}
	for _, tt := range tests {
		if got := ResidentWarps(cfg, tt.regs, tt.tpb); got != tt.want {
			t.Errorf("ResidentWarps(regs=%d, tpb=%d) = %d, want %d", tt.regs, tt.tpb, got, tt.want)
		}
	}
}

func TestResidentWarpsGrowsWithRF(t *testing.T) {
	cfg := DefaultSMConfig()
	small := ResidentWarps(cfg, 63, 32)
	cfg.Registers += 4915 // C2's per-SM register bonus
	big := ResidentWarps(cfg, 63, 32)
	if big <= small {
		t.Errorf("bigger RF should admit more warps: %d vs %d", big, small)
	}
}

func TestResidentWarpsBlockGranularity(t *testing.T) {
	// The paper's observation: an RF bonus that doesn't fit one more
	// whole thread block buys nothing.
	cfg := DefaultSMConfig()
	base := ResidentWarps(cfg, 40, 512) // 20480 regs/block: 1 block
	cfg.Registers += 4915               // not enough for block 2 (needs 40960)
	if got := ResidentWarps(cfg, 40, 512); got != base {
		t.Errorf("sub-block RF bonus changed occupancy: %d -> %d", base, got)
	}
	cfg.Registers = 2 * 20480 // exactly two blocks
	if got := ResidentWarps(cfg, 40, 512); got != 2*base {
		t.Errorf("two-block RF = %d warps, want %d", got, 2*base)
	}
}

func TestALUOnlyKernelFullIPC(t *testing.T) {
	mem := &fixedMem{latency: 100}
	sm := NewSM(0, testCfg(), scriptModel{alu(10)}, mem, 2, 0, 2)
	var cycles int64
	for now := int64(0); !sm.Done() && now < 1000; now++ {
		sm.Step(now)
		cycles = now
	}
	if !sm.Done() {
		t.Fatal("SM never finished")
	}
	st := sm.Stats()
	if st.Instructions != 20 {
		t.Errorf("instructions = %d, want 20", st.Instructions)
	}
	// ALU-only code with >=2 warps issues nearly every cycle.
	if cycles > 25 {
		t.Errorf("ALU kernel took %d cycles for 20 instrs", cycles)
	}
	if len(mem.calls) != 0 {
		t.Error("ALU kernel should not touch memory")
	}
}

func TestLoadMissBlocksWarp(t *testing.T) {
	mem := &fixedMem{latency: 200}
	script := []Instr{{Kind: InstrLoad, Addr: 0x1000}, {Kind: InstrALU}}
	sm := NewSM(0, testCfg(), scriptModel{script}, mem, 1, 0, 1)
	if !sm.Step(0) {
		t.Fatal("load should issue at cycle 0")
	}
	if sm.Step(1) {
		t.Error("warp must be blocked while the load is outstanding")
	}
	if got := sm.NextWake(1); got != 200 {
		t.Errorf("NextWake = %d, want 200", got)
	}
	if !sm.Step(200) {
		t.Error("warp should resume when the load returns")
	}
}

func TestL1HitFasterThanMiss(t *testing.T) {
	mem := &fixedMem{latency: 200}
	script := []Instr{
		{Kind: InstrLoad, Addr: 0x1000},
		{Kind: InstrLoad, Addr: 0x1000}, // same line: L1 hit
	}
	sm := NewSM(0, testCfg(), scriptModel{script}, mem, 1, 0, 1)
	sm.Step(0)
	sm.Step(200) // second load, hits L1
	if len(mem.calls) != 1 {
		t.Fatalf("L2 accesses = %d, want 1 (second load hits L1)", len(mem.calls))
	}
	if got := sm.NextWake(201); got != 200+testCfg().L1HitLatency {
		t.Errorf("L1 hit wake = %d, want %d", got, 200+testCfg().L1HitLatency)
	}
}

func TestGlobalStoreWriteEvictsL1(t *testing.T) {
	mem := &fixedMem{latency: 50}
	script := []Instr{
		{Kind: InstrLoad, Addr: 0x2000},  // brings line into L1
		{Kind: InstrStore, Addr: 0x2000}, // global store: evict + write-through
		{Kind: InstrLoad, Addr: 0x2000},  // must miss again
	}
	sm := NewSM(0, testCfg(), scriptModel{script}, mem, 1, 0, 1)
	for now := int64(0); !sm.Done() && now < 10000; now++ {
		sm.Step(now)
	}
	if sm.Stats().L1WriteEvict != 1 {
		t.Errorf("L1WriteEvict = %d, want 1", sm.Stats().L1WriteEvict)
	}
	// Load, store (write-through), load again: 3 L2 accesses.
	if len(mem.calls) != 3 {
		t.Fatalf("L2 accesses = %d, want 3: %+v", len(mem.calls), mem.calls)
	}
	if !mem.calls[1].Write {
		t.Error("global store must write through to L2")
	}
}

func TestGlobalStoreMissNoAllocate(t *testing.T) {
	mem := &fixedMem{latency: 50}
	script := []Instr{
		{Kind: InstrStore, Addr: 0x3000}, // miss: no-allocate, through to L2
		{Kind: InstrLoad, Addr: 0x3000},  // still a miss
	}
	sm := NewSM(0, testCfg(), scriptModel{script}, mem, 1, 0, 1)
	for now := int64(0); !sm.Done() && now < 10000; now++ {
		sm.Step(now)
	}
	if len(mem.calls) != 2 {
		t.Errorf("L2 accesses = %d, want 2 (store through + load miss)", len(mem.calls))
	}
}

func TestLocalStoreWriteBack(t *testing.T) {
	mem := &fixedMem{latency: 50}
	script := []Instr{
		{Kind: InstrStore, Addr: 0x4000, Space: SpaceLocal}, // allocate dirty in L1
		{Kind: InstrStore, Addr: 0x4000, Space: SpaceLocal}, // L1 write hit
	}
	sm := NewSM(0, testCfg(), scriptModel{script}, mem, 1, 0, 1)
	for now := int64(0); !sm.Done() && now < 10000; now++ {
		sm.Step(now)
	}
	if len(mem.calls) != 0 {
		t.Errorf("local stores should stay in L1, got %d L2 accesses", len(mem.calls))
	}
}

func TestLocalDirtyEvictionWritesBack(t *testing.T) {
	cfg := testCfg() // 1KB, 2-way, 64B: 8 sets; same-set stride 512B
	mem := &fixedMem{latency: 50}
	script := []Instr{
		{Kind: InstrStore, Addr: 0x0000, Space: SpaceLocal},
		{Kind: InstrStore, Addr: 0x0200, Space: SpaceLocal},
		{Kind: InstrStore, Addr: 0x0400, Space: SpaceLocal}, // evicts 0x0000 dirty
	}
	sm := NewSM(0, cfg, scriptModel{script}, mem, 1, 0, 1)
	for now := int64(0); !sm.Done() && now < 10000; now++ {
		sm.Step(now)
	}
	if len(mem.calls) != 1 || !mem.calls[0].Write || mem.calls[0].Addr != 0x0000 {
		t.Errorf("expected one writeback of 0x0000, got %+v", mem.calls)
	}
}

func TestStoresDoNotBlockWarp(t *testing.T) {
	mem := &fixedMem{latency: 500}
	script := []Instr{{Kind: InstrStore, Addr: 0x5000}, {Kind: InstrALU}}
	sm := NewSM(0, testCfg(), scriptModel{script}, mem, 1, 0, 1)
	sm.Step(0)
	if !sm.Step(1) {
		t.Error("warp should continue right after a store")
	}
}

func TestStoreCreditsThrottle(t *testing.T) {
	cfg := testCfg()
	cfg.StoreCredits = 2
	mem := &fixedMem{latency: 1000}
	script := make([]Instr, 8)
	for i := range script {
		script[i] = Instr{Kind: InstrStore, Addr: uint64(0x10000 + i*4096)}
	}
	sm := NewSM(0, cfg, scriptModel{script}, mem, 1, 0, 1)
	issued := 0
	for now := int64(0); now < 10; now++ {
		if sm.Step(now) {
			issued++
		}
	}
	if issued != 2 {
		t.Errorf("issued %d stores with 2 credits, want 2", issued)
	}
	if sm.Stats().StoreStalls == 0 {
		t.Error("store stalls should be recorded")
	}
	// Credits return when the writes complete.
	if !sm.Step(1001) {
		t.Error("store should issue after credits return")
	}
}

func TestNextWakeWithCreditStall(t *testing.T) {
	cfg := testCfg()
	cfg.StoreCredits = 1
	mem := &fixedMem{latency: 300}
	script := []Instr{
		{Kind: InstrStore, Addr: 0x1000},
		{Kind: InstrStore, Addr: 0x2000},
	}
	sm := NewSM(0, cfg, scriptModel{script}, mem, 1, 0, 1)
	sm.Step(0) // first store consumes the only credit
	sm.Step(1) // second store stalls
	if got := sm.NextWake(2); got != 300 {
		t.Errorf("NextWake during credit stall = %d, want 300 (credit return)", got)
	}
}

func TestWarpJobRotation(t *testing.T) {
	mem := &fixedMem{latency: 10}
	sm := NewSM(0, testCfg(), scriptModel{alu(3)}, mem, 2, 0, 6)
	for now := int64(0); !sm.Done() && now < 1000; now++ {
		sm.Step(now)
	}
	if !sm.Done() {
		t.Fatal("SM did not finish all jobs")
	}
	if got := sm.Stats().Instructions; got != 18 {
		t.Errorf("instructions = %d, want 6 jobs * 3 instrs = 18", got)
	}
}

func TestResidentCappedByJobs(t *testing.T) {
	mem := &fixedMem{latency: 10}
	sm := NewSM(0, testCfg(), scriptModel{alu(1)}, mem, 48, 0, 3)
	if sm.ResidentWarpCount() != 3 {
		t.Errorf("resident = %d, want 3 (capped by job count)", sm.ResidentWarpCount())
	}
}

func TestNewSMPanicsAbove64Warps(t *testing.T) {
	cfg := testCfg()
	cfg.MaxWarps = 65
	// 64 warps fill the ready word exactly and run to completion.
	sm := NewSM(0, cfg, scriptModel{alu(2)}, &fixedMem{latency: 10}, 64, 0, 64)
	for now := int64(0); !sm.Done() && now < 1000; now++ {
		sm.Step(now)
	}
	if got := sm.Stats().Instructions; got != 128 {
		t.Errorf("64 warps issued %d instructions, want 128", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("65 resident warps did not panic")
		}
	}()
	NewSM(0, cfg, scriptModel{alu(1)}, &fixedMem{latency: 10}, 65, 0, 65)
}

func TestNextWakeDoneSM(t *testing.T) {
	mem := &fixedMem{latency: 10}
	sm := NewSM(0, testCfg(), scriptModel{alu(1)}, mem, 1, 0, 1)
	for now := int64(0); !sm.Done() && now < 100; now++ {
		sm.Step(now)
	}
	if got := sm.NextWake(100); got != math.MaxInt64 {
		t.Errorf("NextWake of a finished SM = %d, want MaxInt64", got)
	}
}

func TestMoreWarpsHideLatencyBetter(t *testing.T) {
	// The core premise of GPU occupancy: with memory-heavy code, more
	// resident warps finish the same total work in fewer cycles.
	script := make([]Instr, 0, 40)
	for i := 0; i < 20; i++ {
		script = append(script,
			Instr{Kind: InstrLoad, Addr: uint64(i*64*997) % (1 << 20)},
			Instr{Kind: InstrALU})
	}
	run := func(resident int) int64 {
		mem := &fixedMem{latency: 200}
		sm := NewSM(0, testCfg(), scriptModel{script}, mem, resident, 0, 8)
		now := int64(0)
		for !sm.Done() && now < 1_000_000 {
			if sm.Step(now) {
				now++
				continue
			}
			if sm.Done() {
				break
			}
			now = sm.NextWake(now)
		}
		return now
	}
	one, eight := run(1), run(8)
	if eight >= one {
		t.Errorf("8 warps (%d cy) should beat 1 warp (%d cy)", eight, one)
	}
	if float64(one)/float64(eight) < 2 {
		t.Errorf("expected at least 2x latency hiding, got %.2fx", float64(one)/float64(eight))
	}
}

// trackStream records which warp issued by writing to a shared log.
type trackStream struct {
	id  int
	n   int
	log *[]int
}

func (s *trackStream) Next() (Instr, bool) {
	if s.n <= 0 {
		return Instr{}, false
	}
	s.n--
	*s.log = append(*s.log, s.id)
	return Instr{Kind: InstrALU}, true
}

type trackModel struct {
	perWarp int
	log     *[]int
}

func (m trackModel) NewWarp(w int) WarpStream {
	return &trackStream{id: w, n: m.perWarp, log: m.log}
}

func TestRoundRobinInterleavesWarps(t *testing.T) {
	var log []int
	mem := &fixedMem{latency: 10}
	sm := NewSM(0, testCfg(), trackModel{perWarp: 3, log: &log}, mem, 3, 0, 3)
	for now := int64(0); !sm.Done() && now < 100; now++ {
		sm.Step(now)
	}
	// Round-robin: the first three issues come from three warps.
	if len(log) < 3 || log[0] == log[1] || log[1] == log[2] {
		t.Errorf("RR issue order not interleaved: %v", log)
	}
}

func TestSpaceStrings(t *testing.T) {
	want := map[Space]string{
		SpaceGlobal: "global", SpaceLocal: "local",
		SpaceConst: "const", SpaceTex: "tex",
	}
	for sp, w := range want {
		if sp.String() != w {
			t.Errorf("Space(%d).String = %q, want %q", sp, sp.String(), w)
		}
	}
}

func TestConstCacheServesRepeatFetches(t *testing.T) {
	mem := &fixedMem{latency: 100}
	script := []Instr{
		{Kind: InstrLoad, Addr: 0x100, Space: SpaceConst},
		{Kind: InstrLoad, Addr: 0x100, Space: SpaceConst}, // const-cache hit
	}
	sm := NewSM(0, testCfg(), scriptModel{script}, mem, 1, 0, 1)
	for now := int64(0); !sm.Done() && now < 10000; now++ {
		sm.Step(now)
	}
	if len(mem.calls) != 1 {
		t.Errorf("L2 accesses = %d, want 1 (second fetch hits const cache)", len(mem.calls))
	}
	if sm.Stats().ConstLoads != 2 {
		t.Errorf("ConstLoads = %d, want 2", sm.Stats().ConstLoads)
	}
	if cs := sm.ConstStats(); cs.ReadHits != 1 || cs.ReadMisses != 1 {
		t.Errorf("const cache stats = %+v", cs)
	}
}

func TestTexCacheIndependentOfL1(t *testing.T) {
	mem := &fixedMem{latency: 100}
	// Same address via texture and global paths: each path misses once
	// in its own cache.
	script := []Instr{
		{Kind: InstrLoad, Addr: 0x2000, Space: SpaceTex},
		{Kind: InstrLoad, Addr: 0x2000, Space: SpaceGlobal},
	}
	sm := NewSM(0, testCfg(), scriptModel{script}, mem, 1, 0, 1)
	for now := int64(0); !sm.Done() && now < 10000; now++ {
		sm.Step(now)
	}
	if len(mem.calls) != 2 {
		t.Errorf("L2 accesses = %d, want 2 (separate caches)", len(mem.calls))
	}
	if ts := sm.TexStats(); ts.ReadMisses != 1 {
		t.Errorf("tex cache stats = %+v", ts)
	}
}

func TestReadOnlyCachesNeverWriteBack(t *testing.T) {
	cfg := testCfg()
	cfg.TexBytes = 256 // tiny: 256B, 1-way? keep pow2 sets: 4 lines of 64B
	cfg.TexWays = 1
	cfg.TexLineBytes = 64
	mem := &fixedMem{latency: 10}
	script := make([]Instr, 0, 16)
	for i := 0; i < 16; i++ {
		script = append(script, Instr{Kind: InstrLoad, Addr: uint64(i) * 64, Space: SpaceTex})
	}
	sm := NewSM(0, cfg, scriptModel{script}, mem, 1, 0, 1)
	for now := int64(0); !sm.Done() && now < 10000; now++ {
		sm.Step(now)
	}
	for _, c := range mem.calls {
		if c.Write {
			t.Fatal("texture cache produced a writeback")
		}
	}
}
