// Disk-backed result store: the persistence layer behind the in-memory
// job LRU. Completed dumps are appended to a segmented log keyed by job
// ID — the sha256 content address of the canonical request — so the
// store survives restarts and repeat queries hit disk instead of
// re-simulating, without creating a file per result.
//
// Layout: <dir>/seg-<n>.log segments, appended to in increasing n. Each
// record is one header line
//
//	sttllc-store/v2 <id> <payload-len> <hex sha256 of payload>
//
// followed by the compact-JSON StatsDump payload and a newline, written
// with a single write to the active segment, which is opened O_APPEND
// once. The payload is the job's encoded result as it stands: put
// encodes nothing and get decodes nothing, beyond reading the few
// leading scalars the server keeps beside the bytes. An in-memory index
// maps each ID to its record (segment, offset, length); a read is one
// pread on the open segment plus the checksum check. A second put of an
// indexed ID writes nothing: IDs are content addresses, so the record
// already holds the same bytes.
//
// Recovery: opening the store replays every segment in append order.
// A record that fails its checksum or doesn't parse — truncation, bit
// rot, a stray hand edit — is never indexed; its bytes are copied into
// <dir>/quarantine/ and counted, and replay resynchronises on the next
// header. Damage after a segment's last intact record (a crash
// mid-append leaves exactly that) is cut off; a segment with damage
// before an intact record is rewritten forward. Records that fail
// verification at read time are quarantined and unindexed the same way.
//
// Eviction is least-recently-used by record bytes against the budget.
// Recency lives in memory: after a restart it follows append order.
// Rotation and compaction derive from the budget: the active segment
// seals at budget/8, a segment whose live bytes fall below half its size
// is rewritten forward into the active one, and a segment with no live
// records is unlinked. Every segment therefore holds at least half live
// bytes, so the log stays within twice the budget on disk.
//
// One process owns a directory: openStore takes an exclusive lock on
// <dir>/LOCK and a second opener fails. A v1 directory (one file per
// result, <dir>/<id[:2]>/<id>.json) is imported into the log on open;
// each v1 payload is decoded once there, and one that passes its
// checksum but is not a dump is quarantined.
// The store has its own mutex — it never takes the Server's — and does
// its appends and compactions under it, so store IO never blocks the
// scheduler.
package server

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// storeMagic opens every record's header line.
	storeMagic = "sttllc-store/v2"
	// storeMagicV1 is the header of the one-file-per-result layout that
	// openStore imports.
	storeMagicV1 = "sttllc-store/v1"
	// maxHeaderLen bounds the search for a header's newline; a real
	// header is about 120 bytes.
	maxHeaderLen = 256
)

// diskStore is the persistent result store. Nil *diskStore is valid
// and inert: every lookup misses, every write is dropped, so callers
// don't branch on "is persistence configured".
type diskStore struct {
	dir    string
	budget int64 // record-byte budget; eviction keeps total <= budget
	lock   *os.File

	mu      sync.Mutex
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // id → element, Value = *storeEntry
	total   int64                    // sum of indexed record sizes
	segs    []*segment               // open segments, oldest first
	active  *segment                 // appended to; nil until the next append
	nextSeg int
	closed  bool

	hits, misses, writes, evictions, quarantined atomic.Uint64
}

// segment is one open log file.
type segment struct {
	n    int
	f    *os.File
	size int64 // bytes in the file
	live int64 // bytes of indexed records
}

type storeEntry struct {
	id  string
	seg *segment
	off int64 // record start within seg
	n   int64 // record length, header line through trailing newline
}

// defaultStoreBudget bounds the store when the caller doesn't: 256 MB
// of dumps is tens of thousands of results.
const defaultStoreBudget = 256 << 20

// openStore opens (creating if needed) the store rooted at dir, locks
// it against other processes, indexes the records already present and
// imports any v1 result files. budget <= 0 selects the default.
func openStore(dir string, budget int64) (*diskStore, error) {
	if budget <= 0 {
		budget = defaultStoreBudget
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("opening result store: %w", err)
	}
	lock, err := lockStoreDir(dir)
	if err != nil {
		return nil, err
	}
	s := &diskStore{
		dir:     dir,
		budget:  budget,
		lock:    lock,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		nextSeg: 1,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		s.closeLocked()
		return nil, err
	}
	return s, nil
}

// loadLocked replays the segments, imports v1 files, then enforces the
// budget (it may have shrunk between runs) and the segment invariant.
func (s *diskStore) loadLocked() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("scanning result store: %w", err)
	}
	var nums []int
	for _, d := range names {
		if n, ok := segNumber(d.Name()); ok && d.Type().IsRegular() {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	var damaged []*segment
	for _, n := range nums {
		seg, midDamage, err := s.replaySegmentLocked(n)
		if err != nil {
			return err
		}
		if midDamage {
			damaged = append(damaged, seg)
		}
	}
	if len(s.segs) > 0 {
		if last := s.segs[len(s.segs)-1]; last.size < s.budget/8 {
			s.active = last
		}
	}
	for _, seg := range damaged {
		s.compactLocked(seg)
	}
	if err := s.importV1Locked(names); err != nil {
		return err
	}
	s.evictLocked()
	s.tidyLocked()
	return nil
}

// segNumber recovers n from "seg-<n>.log", rejecting any other name.
func segNumber(name string) (int, bool) {
	var n int
	_, err := fmt.Sscanf(name, "seg-%d.log", &n)
	return n, err == nil && n > 0 && name == fmt.Sprintf("seg-%d.log", n)
}

func (s *diskStore) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%d.log", n))
}

// replaySegmentLocked opens segment n and indexes its intact records in
// append order; a later record of an ID supersedes an earlier one.
// Damaged regions are quarantined. Damage after the last intact record
// is cut off; midDamage reports damage before one.
func (s *diskStore) replaySegmentLocked(n int) (seg *segment, midDamage bool, err error) {
	path := s.segPath(n)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("reading result store segment: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, false, fmt.Errorf("opening result store segment: %w", err)
	}
	seg = &segment{n: n, f: f, size: int64(len(b))}
	s.segs = append(s.segs, seg)
	s.nextSeg = n + 1

	end, sawDamage := 0, false
	for off := 0; off < len(b); {
		id, _, rn, err := parseRecord(b[off:])
		if err == nil {
			midDamage = midDamage || sawDamage
			s.indexLocked(id, seg, int64(off), int64(rn))
			off += rn
			end = off
			continue
		}
		stop := len(b)
		if next := bytes.Index(b[off+1:], []byte(storeMagic)); next >= 0 {
			stop = off + 1 + next
		}
		s.quarantineRecord(seg.n, int64(off), b[off:stop])
		sawDamage = true
		off = stop
	}
	if int64(end) < seg.size {
		if err := f.Truncate(int64(end)); err != nil {
			return nil, false, fmt.Errorf("cutting back result store segment: %w", err)
		}
		seg.size = int64(end)
	}
	return seg, midDamage, nil
}

// encodeRecord frames payload as one log record for id.
func encodeRecord(id string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	rec := make([]byte, 0, len(payload)+128)
	rec = append(rec, storeMagic...)
	rec = append(rec, ' ')
	rec = append(rec, id...)
	rec = append(rec, ' ')
	rec = strconv.AppendInt(rec, int64(len(payload)), 10)
	rec = append(rec, ' ')
	rec = hex.AppendEncode(rec, sum[:])
	rec = append(rec, '\n')
	rec = append(rec, payload...)
	return append(rec, '\n')
}

// parseRecord checks that b starts with one whole, intact record and
// returns its ID, its payload and its length. Any structural problem —
// missing or malformed header, wrong magic, truncation, checksum
// mismatch — is an error.
func parseRecord(b []byte) (id string, payload []byte, n int, err error) {
	nl := bytes.IndexByte(b[:min(len(b), maxHeaderLen)], '\n')
	if nl < 0 {
		return "", nil, 0, errors.New("no header line")
	}
	f := strings.Split(string(b[:nl]), " ")
	if len(f) != 4 || f[0] != storeMagic || !validStoreID(f[1]) {
		return "", nil, 0, fmt.Errorf("bad header %q", b[:nl])
	}
	plen, err := strconv.Atoi(f[2])
	if err != nil || plen < 0 || plen > len(b)-nl-2 {
		return "", nil, 0, fmt.Errorf("record %s: truncated or bad length", f[1])
	}
	payload = b[nl+1 : nl+1+plen]
	sum := sha256.Sum256(payload)
	if b[nl+1+plen] != '\n' || hex.EncodeToString(sum[:]) != f[3] {
		return "", nil, 0, fmt.Errorf("record %s: checksum mismatch", f[1])
	}
	return f[1], payload, nl + 2 + plen, nil
}

// validStoreID accepts exactly the 32 hex characters of a job ID.
func validStoreID(id string) bool {
	if len(id) != 32 {
		return false
	}
	_, err := hex.DecodeString(id)
	return err == nil
}

// quarantineRecord copies damaged log bytes aside (never deletes: they
// may matter for diagnosis) and counts them. Best-effort — a failed copy
// still leaves the record un-indexed.
func (s *diskStore) quarantineRecord(seg int, off int64, b []byte) {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		// A unique name: segment numbers restart once a directory has
		// none left, and an earlier copy must never be overwritten.
		if f, err := os.CreateTemp(qdir, fmt.Sprintf("seg-%d-%d-*.rec", seg, off)); err == nil {
			f.Write(b)
			f.Close()
		}
	}
	s.quarantined.Add(1)
}

// importV1Locked moves results stored one file per result
// (<dir>/<id[:2]>/<id>.json, sttllc-store/v1) into the log, oldest
// first so append order keeps their recency. Each verified file is
// removed once the log holding it is synced; files failing verification
// are moved into quarantine/. Other directories (traces/) are left
// alone.
func (s *diskStore) importV1Locked(dirs []os.DirEntry) error {
	type v1file struct {
		path, id string
		mtime    time.Time
	}
	var files []v1file
	for _, d := range dirs {
		if !d.IsDir() || len(d.Name()) != 2 {
			continue
		}
		sub, err := os.ReadDir(filepath.Join(s.dir, d.Name()))
		if err != nil {
			return fmt.Errorf("scanning result store: %w", err)
		}
		for _, e := range sub {
			id, ok := strings.CutSuffix(e.Name(), ".json")
			if !ok || !validStoreID(id) || id[:2] != d.Name() || !e.Type().IsRegular() {
				continue // temp files, strays
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			files = append(files, v1file{filepath.Join(s.dir, d.Name(), e.Name()), id, info.ModTime()})
		}
	}
	if len(files) == 0 {
		return nil
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	var imported []string
	for _, v := range files {
		res, err := readV1(v.path)
		if err != nil {
			s.quarantineFile(v.path)
			continue
		}
		if _, ok := s.entries[v.id]; !ok {
			rec := encodeRecord(v.id, res.dump)
			seg, off, err := s.appendLocked(rec)
			if err != nil {
				return fmt.Errorf("importing v1 result store: %w", err)
			}
			s.indexLocked(v.id, seg, off, int64(len(rec)))
		}
		imported = append(imported, v.path)
	}
	for _, seg := range s.segs {
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("importing v1 result store: %w", err)
		}
	}
	for _, p := range imported {
		os.Remove(p)
		os.Remove(filepath.Dir(p)) // only succeeds once the fan-out dir is empty
	}
	return nil
}

// readV1 returns a v1 result file's payload, validated, after checking
// its header checksum.
func readV1(path string) (result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return result{}, err
	}
	header, payload, ok := bytes.Cut(b, []byte{'\n'})
	magic, sum, _ := strings.Cut(string(header), " ")
	got := sha256.Sum256(payload)
	if !ok || magic != storeMagicV1 || hex.EncodeToString(got[:]) != sum {
		return result{}, fmt.Errorf("store file %s: bad header or checksum", path)
	}
	res, err := decodeResult(payload)
	if err != nil {
		return result{}, fmt.Errorf("store file %s: %v", path, err)
	}
	return res, nil
}

// quarantineFile moves a damaged v1 file aside and counts it.
func (s *diskStore) quarantineFile(path string) {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		os.Rename(path, filepath.Join(qdir, filepath.Base(path)))
	}
	s.quarantined.Add(1)
}

// get returns the stored result for id, or nil on any kind of miss
// (absent, evicted, corrupt — corrupt records are quarantined on the
// way). A hit refreshes recency in memory.
func (s *diskStore) get(id string) *result {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	el, ok := s.entries[id]
	if !ok || s.closed {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil
	}
	s.order.MoveToFront(el)
	e := el.Value.(*storeEntry)
	seg, off, n := e.seg, e.off, e.n
	s.mu.Unlock()

	buf := make([]byte, n)
	var res result
	got, err := seg.f.ReadAt(buf, off)
	if err == nil {
		var rid string
		if rid, res.dump, _, err = parseRecord(buf); err == nil && rid != id {
			err = fmt.Errorf("record %s indexed as %s", rid, id)
		}
		if err == nil {
			res.summary, err = readSummary(res.dump)
		}
	}
	if err == nil {
		s.hits.Add(1)
		return &res
	}
	s.misses.Add(1)

	// Only a record still indexed where it was read is damaged: one
	// evicted, compacted or closed since the lookup is a plain miss.
	s.mu.Lock()
	damaged := !s.closed && s.entries[id] == el && e.seg == seg && e.off == off
	if damaged {
		s.dropLocked(el)
		s.tidyLocked()
	}
	s.mu.Unlock()
	if damaged {
		s.quarantineRecord(seg.n, off, buf[:got])
	}
	return nil
}

// put persists a completed job's encoded dump under id. Errors are
// swallowed — persistence is an optimization; a full or read-only disk
// must not fail the job that just completed.
func (s *diskStore) put(id string, dump []byte) {
	if s == nil {
		return
	}
	rec := encodeRecord(id, dump)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if el, ok := s.entries[id]; ok {
		// Concurrent writers, or a re-run after a non-cached failure
		// record: the log already holds these bytes.
		s.order.MoveToFront(el)
		return
	}
	seg, off, err := s.appendLocked(rec)
	if err != nil {
		return
	}
	s.indexLocked(id, seg, off, int64(len(rec)))
	s.writes.Add(1)
	s.evictLocked()
	s.tidyLocked()
}

// appendLocked writes rec to the active segment, creating one if there
// is none, and seals it once it reaches budget/8. A failed write seals
// the segment too, so a torn tail is never followed by a record whose
// offset the index would get wrong.
func (s *diskStore) appendLocked(rec []byte) (*segment, int64, error) {
	if s.active == nil {
		f, err := os.OpenFile(s.segPath(s.nextSeg), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if err != nil {
			return nil, 0, err
		}
		s.active = &segment{n: s.nextSeg, f: f}
		s.segs = append(s.segs, s.active)
		s.nextSeg++
	}
	seg := s.active
	off := seg.size
	if _, err := seg.f.Write(rec); err != nil {
		s.active = nil
		if info, serr := seg.f.Stat(); serr == nil {
			seg.size = info.Size()
		}
		return nil, 0, err
	}
	seg.size += int64(len(rec))
	if seg.size >= s.budget/8 {
		s.active = nil
	}
	return seg, off, nil
}

// indexLocked records that id's record lives at (seg, off) and makes it
// the most recently used entry.
func (s *diskStore) indexLocked(id string, seg *segment, off, n int64) {
	if el, ok := s.entries[id]; ok {
		s.dropLocked(el)
	}
	s.entries[id] = s.order.PushFront(&storeEntry{id: id, seg: seg, off: off, n: n})
	s.total += n
	seg.live += n
}

func (s *diskStore) dropLocked(el *list.Element) {
	e := el.Value.(*storeEntry)
	s.order.Remove(el)
	delete(s.entries, e.id)
	s.total -= e.n
	e.seg.live -= e.n
}

// evictLocked unindexes least-recently-used records until total <=
// budget; their bytes go when tidyLocked rewrites or unlinks the
// segments holding them.
func (s *diskStore) evictLocked() {
	for s.total > s.budget && s.order.Len() > 1 {
		s.dropLocked(s.order.Back())
		s.evictions.Add(1)
	}
}

// tidyLocked restores the segment invariant — every segment holds at
// least half live bytes — by unlinking segments with no live records
// and rewriting forward those below half.
func (s *diskStore) tidyLocked() {
	// Backwards, so removing s.segs[i] or appending to s.segs while
	// compacting never skips a segment not yet visited.
	for i := len(s.segs) - 1; i >= 0; i-- {
		switch seg := s.segs[i]; {
		case seg.live == 0:
			s.removeSegmentLocked(seg)
		case 2*seg.live < seg.size:
			s.compactLocked(seg)
		}
	}
}

// compactLocked rewrites seg's live records, in their append order,
// into the active segment and then removes seg. Records that fail
// verification on the way are quarantined and unindexed. An IO error
// leaves seg (and the records not yet moved) in place for a later try.
func (s *diskStore) compactLocked(seg *segment) {
	if seg == s.active {
		s.active = nil
	}
	var live []*storeEntry
	for el := s.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*storeEntry); e.seg == seg {
			live = append(live, e)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].off < live[j].off })
	var buf []byte
	for _, e := range live {
		if int64(cap(buf)) < e.n {
			buf = make([]byte, e.n)
		}
		buf = buf[:e.n]
		got, err := seg.f.ReadAt(buf, e.off)
		if err != nil && !errors.Is(err, io.EOF) {
			return
		}
		if id, _, _, err := parseRecord(buf[:got]); err != nil || id != e.id {
			s.dropLocked(s.entries[e.id])
			s.quarantineRecord(seg.n, e.off, buf[:got])
			continue
		}
		to, off, err := s.appendLocked(buf)
		if err != nil {
			return
		}
		seg.live -= e.n
		to.live += e.n
		e.seg, e.off = to, off
	}
	s.removeSegmentLocked(seg)
}

func (s *diskStore) removeSegmentLocked(seg *segment) {
	if seg == s.active {
		s.active = nil
	}
	seg.f.Close()
	os.Remove(seg.f.Name())
	for i, o := range s.segs {
		if o == seg {
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
			break
		}
	}
}

// close syncs and closes the segments and releases the directory lock.
// Afterwards the store behaves as empty: lookups miss, puts are
// dropped. Idempotent; nil-safe.
func (s *diskStore) close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *diskStore) closeLocked() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	for _, seg := range s.segs {
		errs = append(errs, seg.f.Sync(), seg.f.Close())
	}
	s.segs, s.active = nil, nil
	errs = append(errs, s.lock.Close())
	return errors.Join(errs...)
}

// len and bytes report the index size for metrics; nil-safe.
func (s *diskStore) len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

func (s *diskStore) bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}
