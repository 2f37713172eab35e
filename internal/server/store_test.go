package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sttllc/internal/sim"
)

// storeID fabricates a syntactically valid job ID (32 hex chars).
func storeID(n int) string { return fmt.Sprintf("%032x", n) }

// storeDump is a small dump, encoded the way the server stores results.
func storeDump(n int) []byte {
	d := sim.StatsDump{Schema: sim.StatsSchema, Config: fmt.Sprintf("C%d", n), Benchmark: "bfs", Cycles: int64(n)}
	b, err := d.AppendJSON(nil)
	if err != nil {
		panic(err)
	}
	return b
}

func mustOpenStore(t testing.TB, dir string, budget int64) *diskStore {
	t.Helper()
	st, err := openStore(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.close() })
	return st
}

func mustClose(t testing.TB, st *diskStore) {
	t.Helper()
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
}

// recordOf returns where id's record lives.
func recordOf(t testing.TB, st *diskStore, id string) (path string, off, n int64) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.entries[id]
	if !ok {
		t.Fatalf("%s not indexed", id)
	}
	e := el.Value.(*storeEntry)
	return st.segPath(e.seg.n), e.off, e.n
}

// corruptRecord flips a bit in the last payload byte of id's record, in
// place, behind the store's back.
func corruptRecord(t testing.TB, st *diskStore, id string) {
	t.Helper()
	path, off, n := recordOf(t, st, id)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off+n-2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, off+n-2); err != nil {
		t.Fatal(err)
	}
}

// logBytes sums the sizes of the store's segment files.
func logBytes(t testing.TB, dir string) int64 {
	t.Helper()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, d := range names {
		if _, ok := segNumber(d.Name()); ok {
			info, err := d.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
	}
	return total
}

// quarantined returns the concatenated contents of quarantine/ and its
// file count.
func quarantined(t testing.TB, dir string) ([]byte, int) {
	t.Helper()
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var all []byte
	for _, d := range q {
		b, err := os.ReadFile(filepath.Join(dir, "quarantine", d.Name()))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all, len(q)
}

// recordUnit is the size of one storeDump record, for budgets counted
// in records.
func recordUnit(t testing.TB) int64 {
	t.Helper()
	st := mustOpenStore(t, t.TempDir(), 0)
	st.put(storeID(0), storeDump(0))
	if st.bytes() <= 0 {
		t.Fatalf("probe size = %d", st.bytes())
	}
	return st.bytes()
}

func TestStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	st := mustOpenStore(t, dir, 0)
	st.put(storeID(1), storeDump(1))
	st.put(storeID(2), storeDump(2))
	got := st.get(storeID(1))
	if got == nil || got.Cycles != 1 {
		t.Fatalf("get after put = %+v", got)
	}
	if st.get(storeID(3)) != nil {
		t.Fatal("get of absent id returned a dump")
	}
	mustClose(t, st)

	// A fresh store over the same directory re-indexes the log: this is
	// the restart-survival property the whole layer exists for.
	st2 := mustOpenStore(t, dir, 0)
	if st2.len() != 2 {
		t.Fatalf("reopened store indexed %d entries, want 2", st2.len())
	}
	// The read before the restart does not survive it: recency after a
	// restart follows append order, so 1 is still the oldest entry.
	st2.mu.Lock()
	oldest := st2.order.Back().Value.(*storeEntry).id
	st2.mu.Unlock()
	if oldest != storeID(1) {
		t.Fatalf("oldest entry after reopen = %s, want %s (append order)", oldest, storeID(1))
	}
	got = st2.get(storeID(1))
	if got == nil || got.Cycles != 1 || !bytes.Equal(got.dump, storeDump(1)) {
		t.Fatalf("reopened get = %+v", got)
	}
}

func TestStoreNilIsInert(t *testing.T) {
	var st *diskStore
	st.put(storeID(1), storeDump(1))
	if st.get(storeID(1)) != nil || st.len() != 0 || st.bytes() != 0 || st.close() != nil {
		t.Fatal("nil store not inert")
	}
}

func TestStoreCorruptFileQuarantinedOnStartup(t *testing.T) {
	dir := t.TempDir()
	st := mustOpenStore(t, dir, 0)
	for i := 1; i <= 4; i++ {
		st.put(storeID(i), storeDump(i))
	}
	path, off2, n2 := recordOf(t, st, storeID(2)) // will be truncated
	_, off3, n3 := recordOf(t, st, storeID(3))    // will be bit-flipped
	_, off4, _ := recordOf(t, st, storeID(4))     // intact, after the damage
	if off3 != off2+n2 || off4 != off3+n3 {
		t.Fatalf("records not adjacent: %d+%d, %d+%d, %d", off2, n2, off3, n3, off4)
	}
	mustClose(t, st)

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := n2 / 2
	damaged := append(append([]byte(nil), b[:off2+cut]...), b[off3:]...)
	damaged[off3-(n2-cut)+n3-2] ^= 0x40
	bad := append([]byte(nil), damaged[off2:off4-(n2-cut)]...)
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpenStore(t, dir, 0)
	if st2.len() != 2 {
		t.Fatalf("indexed %d entries, want 2 (corrupt records must not be served)", st2.len())
	}
	if st2.get(storeID(2)) != nil || st2.get(storeID(3)) != nil {
		t.Fatal("corrupt entry served")
	}
	if got := st2.quarantined.Load(); got != 2 {
		t.Fatalf("quarantined = %d, want 2", got)
	}
	q, files := quarantined(t, dir)
	if files != 2 || len(q) != len(bad) {
		t.Fatalf("quarantine holds %d files, %d bytes; want 2 files, %d bytes (damage must be copied aside, not deleted)", files, len(q), len(bad))
	}
	if st2.get(storeID(1)) == nil || st2.get(storeID(4)) == nil {
		t.Fatal("intact entry lost")
	}
	mustClose(t, st2)

	// The damaged segment was rewritten forward: the next open finds
	// nothing to quarantine and still serves both intact records.
	st3 := mustOpenStore(t, dir, 0)
	if st3.quarantined.Load() != 0 || st3.len() != 2 {
		t.Fatalf("second reopen: quarantined %d, len %d; want 0, 2", st3.quarantined.Load(), st3.len())
	}
	if st3.get(storeID(1)) == nil || st3.get(storeID(4)) == nil {
		t.Fatal("intact entry lost after compaction")
	}
}

func TestStoreCorruptionAtReadTimeQuarantined(t *testing.T) {
	dir := t.TempDir()
	st := mustOpenStore(t, dir, 0)
	st.put(storeID(1), storeDump(1))
	// Corrupt after indexing: the startup scan saw a good record, the
	// read path must still catch the damage.
	path, off, n := recordOf(t, st, storeID(1))
	corruptRecord(t, st, storeID(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := b[off : off+n]
	if st.get(storeID(1)) != nil {
		t.Fatal("corrupt entry served")
	}
	if st.quarantined.Load() != 1 {
		t.Fatalf("quarantined = %d, want 1", st.quarantined.Load())
	}
	if st.len() != 0 {
		t.Fatal("corrupt entry still indexed")
	}
	if q, files := quarantined(t, dir); files != 1 || !bytes.Equal(q, rec) {
		t.Fatalf("quarantine holds %d files, want the damaged record", files)
	}
	// The ID is writable again.
	st.put(storeID(1), storeDump(1))
	if got := st.get(storeID(1)); got == nil || got.Cycles != 1 {
		t.Fatalf("get after re-put = %+v", got)
	}
}

func TestStoreTornFinalRecordCutBack(t *testing.T) {
	dir := t.TempDir()
	st := mustOpenStore(t, dir, 0)
	st.put(storeID(1), storeDump(1))
	st.put(storeID(2), storeDump(2))
	path, off, n := recordOf(t, st, storeID(2))
	mustClose(t, st)

	// A crash mid-append leaves the front half of a record at the tail.
	payload := storeDump(3)
	rec := encodeRecord(storeID(3), payload)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := mustOpenStore(t, dir, 0)
	if st2.len() != 2 || st2.get(storeID(1)) == nil || st2.get(storeID(2)) == nil {
		t.Fatalf("reopen after a torn append: len %d, want both intact records", st2.len())
	}
	if info, err := os.Stat(path); err != nil || info.Size() != off+n {
		t.Fatalf("segment not cut back to the last good record: %v, err %v; want %d bytes", info.Size(), err, off+n)
	}
	if q, _ := quarantined(t, dir); !bytes.Equal(q, rec[:len(rec)/2]) {
		t.Fatal("torn bytes not copied to quarantine")
	}
	st2.put(storeID(3), storeDump(3))
	mustClose(t, st2)

	st3 := mustOpenStore(t, dir, 0)
	if st3.len() != 3 || st3.quarantined.Load() != 0 {
		t.Fatalf("append after cut-back: len %d quarantined %d, want 3 and 0", st3.len(), st3.quarantined.Load())
	}
	if got := st3.get(storeID(3)); got == nil || got.Cycles != 3 {
		t.Fatalf("record appended after the cut-back = %+v", got)
	}
}

func TestStoreEvictionRespectsBudget(t *testing.T) {
	unit := recordUnit(t)
	dir := t.TempDir()
	st := mustOpenStore(t, dir, unit*2+unit/2) // room for 2, not 3
	for i := 1; i <= 4; i++ {
		st.put(storeID(i), storeDump(i))
	}
	if st.bytes() > st.budget {
		t.Fatalf("store over budget: %d > %d", st.bytes(), st.budget)
	}
	if st.len() > 2 {
		t.Fatalf("len = %d, want <= 2", st.len())
	}
	if st.evictions.Load() == 0 {
		t.Fatal("no evictions counted")
	}
	// LRU order: the newest entries survive.
	if st.get(storeID(4)) == nil {
		t.Fatal("most recent entry evicted")
	}
	if st.get(storeID(1)) != nil {
		t.Fatal("oldest entry survived a over-budget store")
	}
	// Reads count as use: 3 was read after 4 was written, so 4 goes.
	st.get(storeID(3))
	st.put(storeID(5), storeDump(5))
	if st.get(storeID(3)) == nil || st.get(storeID(4)) != nil {
		t.Fatal("eviction ignored read recency")
	}
	// Evicted records are gone from disk: at this budget every record
	// seals its own segment, which goes when its record does.
	if got := logBytes(t, dir); got != st.bytes() {
		t.Fatalf("log holds %d bytes, want exactly the live %d", got, st.bytes())
	}
}

func TestStoreEvictionStormKeepsDiskBound(t *testing.T) {
	unit := recordUnit(t)
	dir := t.TempDir()
	budget := 16 * unit
	st := mustOpenStore(t, dir, budget)
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 400; i++ {
		st.put(storeID(i), storeDump(i))
		// Reads of older entries reorder recency away from append order,
		// so evictions punch holes all over the log.
		for r := 0; r < 3; r++ {
			k := i - rng.Intn(min(i, 24))
			if got := st.get(storeID(k)); got != nil && got.Cycles != int64(k) {
				t.Fatalf("get(%d) = %+v", k, got)
			}
		}
		if got := logBytes(t, dir); got > 2*budget {
			t.Fatalf("after put %d: log holds %d bytes, over twice the budget %d", i, got, budget)
		}
		if st.bytes() > budget {
			t.Fatalf("after put %d: %d live bytes over budget %d", i, st.bytes(), budget)
		}
	}
	if st.evictions.Load() == 0 || st.quarantined.Load() != 0 {
		t.Fatalf("evictions %d quarantined %d, want >0 and 0", st.evictions.Load(), st.quarantined.Load())
	}
	n := st.len()
	mustClose(t, st)
	st2 := mustOpenStore(t, dir, budget)
	if st2.len() != n || st2.quarantined.Load() != 0 {
		t.Fatalf("reopen after storm: len %d (want %d), quarantined %d", st2.len(), n, st2.quarantined.Load())
	}
	if got := st2.get(storeID(400)); got == nil || got.Cycles != 400 {
		t.Fatalf("newest record after reopen = %+v", got)
	}
}

// TestStoreEvictReadRaceNotCorruption: a record evicted between a get's
// index lookup and its read is a miss, not damage. A 4-goroutine
// put/get storm over a store with room for 2 records must quarantine
// nothing and serve only correct dumps.
func TestStoreEvictReadRaceNotCorruption(t *testing.T) {
	unit := recordUnit(t)
	st := mustOpenStore(t, t.TempDir(), unit*2+unit/2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (g*7 + i) % 6
				st.put(storeID(k), storeDump(k))
				want := (k + 1) % 6
				if got := st.get(storeID(want)); got != nil && (got.Cycles != int64(want) || !bytes.Equal(got.dump, storeDump(want))) {
					t.Errorf("get(%d) = %+v", want, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if q := st.quarantined.Load(); q != 0 {
		t.Fatalf("quarantined = %d with no corruption at all", q)
	}
}

func TestStoreConcurrentWritersIdempotent(t *testing.T) {
	dir := t.TempDir()
	st := mustOpenStore(t, dir, 0)
	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.put(storeID(7), storeDump(7))
		}()
	}
	wg.Wait()
	if st.len() != 1 {
		t.Fatalf("len = %d, want 1", st.len())
	}
	got := st.get(storeID(7))
	if got == nil || got.Cycles != 7 {
		t.Fatalf("get after concurrent puts = %+v", got)
	}
	// One record in one segment: later writers of an indexed ID write
	// nothing.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, d := range names {
		files = append(files, d.Name())
	}
	if len(files) != 2 || files[0] != "LOCK" || files[1] != "seg-1.log" {
		t.Fatalf("store dir contents = %v, want LOCK and one segment", files)
	}
	if st.writes.Load() != 1 || logBytes(t, dir) != st.bytes() || st.bytes() <= 0 {
		t.Fatalf("writes %d, log %d bytes, indexed %d bytes; want one record", st.writes.Load(), logBytes(t, dir), st.bytes())
	}
}

func TestStoreIgnoresStrayFiles(t *testing.T) {
	dir := t.TempDir()
	strays := map[string]string{
		"README":                    "not a result",
		"ab/nothex.json":            "x",
		"00/.tmp-x-1":               "x",
		"seg-x.log":                 "x",
		"seg-01.log":                "x",
		"seg-2.log.tmp":             "x",
		"traces/0123.rec":           "x",
		"quarantine/seg-1-0-9.rec":  "x",
		"00/" + storeID(5) + ".txt": "x",
	}
	for name, body := range strays {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st := mustOpenStore(t, dir, 0)
	if st.len() != 0 {
		t.Fatalf("indexed %d stray files", st.len())
	}
	if st.quarantined.Load() != 0 {
		t.Fatal("stray files quarantined; they should be ignored")
	}
	for name, body := range strays {
		if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(b) != body {
			t.Errorf("stray %s touched: %q, %v", name, b, err)
		}
	}
}

// writeV1 writes id's dump the way the one-file-per-result store did.
func writeV1(t *testing.T, dir, id string, payload []byte, sum string, mtime time.Time) string {
	t.Helper()
	p := filepath.Join(dir, id[:2], id+".json")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, append([]byte(storeMagicV1+" "+sum+"\n"), payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(p, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStoreImportsV1Directory(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	var v1 []string
	// Written newest first: the import must follow mtimes, not names.
	for i := 3; i >= 1; i-- {
		payload := storeDump(i)
		sum := sha256.Sum256(payload)
		v1 = append(v1, writeV1(t, dir, storeID(i), payload, hex.EncodeToString(sum[:]), base.Add(time.Duration(i)*time.Minute)))
	}
	payload := storeDump(4)
	writeV1(t, dir, storeID(4), payload, strings.Repeat("0", 64), base) // checksum mismatch
	trace := filepath.Join(dir, "traces", "abc.rec")
	if err := os.MkdirAll(filepath.Dir(trace), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trace, []byte("trace"), 0o644); err != nil {
		t.Fatal(err)
	}

	st := mustOpenStore(t, dir, 0)
	if st.len() != 3 || st.quarantined.Load() != 1 {
		t.Fatalf("import: len %d quarantined %d, want 3 and 1", st.len(), st.quarantined.Load())
	}
	for i := 1; i <= 3; i++ {
		if got := st.get(storeID(i)); got == nil || got.Cycles != int64(i) {
			t.Fatalf("imported get(%d) = %+v", i, got)
		}
	}
	for _, p := range v1 {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("imported v1 file %s left behind: %v", p, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", storeID(4)+".json")); err != nil {
		t.Fatalf("bad v1 file not quarantined: %v", err)
	}
	if b, err := os.ReadFile(trace); err != nil || string(b) != "trace" {
		t.Fatalf("traces/ touched by the import: %q, %v", b, err)
	}
	mustClose(t, st)

	// The results now live in the log, oldest v1 file appended first.
	st2 := mustOpenStore(t, dir, 0)
	if st2.len() != 3 || st2.quarantined.Load() != 0 {
		t.Fatalf("reopen after import: len %d quarantined %d, want 3 and 0", st2.len(), st2.quarantined.Load())
	}
	st2.mu.Lock()
	oldest := st2.order.Back().Value.(*storeEntry).id
	st2.mu.Unlock()
	if oldest != storeID(1) {
		t.Fatalf("oldest imported entry = %s, want %s", oldest, storeID(1))
	}
}

// TestStoreChecksummedMalformedPayloads: a payload whose checksum holds
// but which is not a dump never reaches a client. A v1 file is
// quarantined at import, where its payload is decoded; a v2 record is
// quarantined when get cannot read its summary.
func TestStoreChecksummedMalformedPayloads(t *testing.T) {
	dir := t.TempDir()
	for i, payload := range []string{`{"cycles":`, `null`, `{"cycles":"three"}`} {
		sum := sha256.Sum256([]byte(payload))
		writeV1(t, dir, storeID(i+1), []byte(payload), hex.EncodeToString(sum[:]), time.Now())
	}
	bad := encodeRecord(storeID(9), []byte("not json"))
	if err := os.WriteFile(filepath.Join(dir, "seg-1.log"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	st := mustOpenStore(t, dir, 0)
	if st.quarantined.Load() != 3 || st.len() != 1 {
		t.Fatalf("open: quarantined %d, indexed %d; want the 3 v1 files quarantined and the v2 record indexed",
			st.quarantined.Load(), st.len())
	}
	if got := st.get(storeID(9)); got != nil {
		t.Fatalf("get served a malformed payload: %q", got.dump)
	}
	if st.quarantined.Load() != 4 || st.len() != 0 {
		t.Fatalf("after get: quarantined %d, indexed %d; want 4 and 0", st.quarantined.Load(), st.len())
	}
}

// TestStoreReopenAfterShutdown: Shutdown releases the store directory,
// and the next daemon over it serves what the last one stored.
func TestStoreReopenAfterShutdown(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, StoreDir: dir})
	s1.runFn = stubRun(nil)
	if rec, _ := postJSON(t, s1.Handler(), "/v1/simulations?wait=true", tinyReq("bfs")); rec.Code != http.StatusOK {
		t.Fatalf("run = %d", rec.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	id := tinyReq("bfs").normalize().Key()
	if s1.store.get(id) != nil {
		t.Fatal("closed store still serves")
	}
	s1.store.put(storeID(9), storeDump(9)) // dropped, not a panic

	s2 := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	if got := s2.store.get(id); got == nil || !bytes.Contains(got.dump, []byte(`"benchmark":"bfs"`)) {
		t.Fatalf("store after restart = %+v", got)
	}
}

func BenchmarkStorePut(b *testing.B) {
	dump := benchStoreDump(b)
	st := mustOpenStore(b, b.TempDir(), 64<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.put(storeID(i), dump)
	}
}

func BenchmarkStoreGet(b *testing.B) {
	dump := benchStoreDump(b)
	st := mustOpenStore(b, b.TempDir(), 0)
	const n = 1024
	for i := 0; i < n; i++ {
		st.put(storeID(i), dump)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.get(storeID(i%n)) == nil {
			b.Fatal("miss")
		}
	}
}

// benchStoreDump is a real, metrics-carrying dump, encoded, so records
// have the size the service stores.
func benchStoreDump(b *testing.B) []byte {
	b.Helper()
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	dump, err := s.runSimulation(context.Background(), tinyReq("bfs"), &simSlot{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := encodeResult(dump)
	if err != nil {
		b.Fatal(err)
	}
	return res.dump
}

// FuzzStoreRecovery appends arbitrary bytes to, splices them into, or
// overwrites part of a segment holding intact records, then opens the
// store over it: openStore must not panic, and every dump it serves
// must be exactly the payload its record's checksum covers.
func FuzzStoreRecovery(f *testing.F) {
	var log []byte
	for i := 1; i <= 3; i++ {
		payload := storeDump(i)
		log = append(log, encodeRecord(storeID(i), payload)...)
	}
	payload := storeDump(9)
	rec := encodeRecord(storeID(9), payload)
	f.Add(uint8(0), uint16(0), []byte("garbage"))
	f.Add(uint8(0), uint16(0), rec)
	f.Add(uint8(0), uint16(0), rec[:len(rec)/2])
	f.Add(uint8(1), uint16(150), rec)
	f.Add(uint8(1), uint16(40), []byte("\n"))
	f.Add(uint8(2), uint16(200), []byte{0x40})
	f.Add(uint8(2), uint16(20), []byte(storeMagic+" "))
	f.Fuzz(func(t *testing.T, mode uint8, at uint16, data []byte) {
		b := append([]byte(nil), log...)
		pos := int(at) % (len(b) + 1)
		switch mode % 3 {
		case 0: // append, as a torn or foreign write would
			b = append(b, data...)
		case 1: // splice in
			b = append(b[:pos:pos], append(data, b[pos:]...)...)
		case 2: // overwrite in place
			b = append(b[:pos:pos], append(data, b[min(len(b), pos+len(data)):]...)...)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-1.log"), b, 0o644); err != nil {
			t.Fatal(err)
		}

		st2 := mustOpenStore(t, dir, 0)
		st2.mu.Lock()
		var ids []string
		for id := range st2.entries {
			ids = append(ids, id)
		}
		st2.mu.Unlock()
		for _, id := range ids {
			dump := st2.get(id)
			if dump == nil {
				continue
			}
			path, off, n := recordOf(t, st2, id)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rec := raw[off : off+n]
			header, body, _ := bytes.Cut(rec, []byte{'\n'})
			body = body[:len(body)-1]
			fields := strings.Split(string(header), " ")
			sum := sha256.Sum256(body)
			if fields[1] != id || fields[3] != hex.EncodeToString(sum[:]) {
				t.Fatalf("served %s from a record whose checksum does not cover it: %q", id, header)
			}
			if !bytes.Equal(dump.dump, body) {
				t.Fatalf("served dump for %s differs from its record's payload", id)
			}
		}
	})
}
