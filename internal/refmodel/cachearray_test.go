package refmodel

import (
	"fmt"
	"testing"

	"sttllc/internal/cache"
)

// arrayGeometries are the shapes FuzzCacheArray builds, none of which a
// bank organization uses: a direct-mapped array, 7 ways over several
// sets, exactly one full 64-bit way mask, and way masks of two and of
// three words.
var arrayGeometries = []struct{ sets, ways int }{
	{8, 1}, {4, 7}, {2, 64}, {2, 65}, {1, 130},
}

const arrayLineBytes = 64

// The operations of FuzzCacheArray's encoding. Each is a code byte
// followed by its operand bytes; a missing operand reads as zero. The
// first three all read a line byte and a flag byte, and all probe.
const (
	arrayProbe      = iota // line, _: Victim too, no state change
	arrayAccess            // line, write: AccessAt on a hit
	arrayFill              // line, dirty: Fill on a miss
	arrayInvalidate        // set, way: InvalidateWay
	arrayFlush             // FlushDirty
	arrayActive            // n: SetActiveWays(1 + n%ways)
	arrayOps
)

// maxArraySteps bounds one input's operations.
const maxArraySteps = 2048

// diffArray decodes data into a geometry (first byte) and a sequence of
// array operations, applies each to a cache.Cache and a refCache, and
// fails at the first divergence in a returned value or, through
// compareArray, in any line's tag, dirty bit, metadata or exact use
// stamp, or in the stats.
func diffArray(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	g := arrayGeometries[int(data[0])%len(arrayGeometries)]
	data = data[1:]
	capacity := g.sets * g.ways * arrayLineBytes
	opt := cache.New(capacity, g.ways, arrayLineBytes)
	ref := newRefCache(capacity, g.ways, arrayLineBytes)
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	invalidate := func(ctx string, set, way int) error {
		wantFound := ref.lines[set][way].valid
		rev := ref.invalidateWay(set, way)
		ev, found := opt.InvalidateWay(set, way)
		if found != wantFound || ev.Addr != rev.addr || ev.Dirty != rev.dirty {
			return fmt.Errorf("%s: InvalidateWay(%d, %d) = %+v, %v; reference %+v, %v",
				ctx, set, way, ev, found, rev, wantFound)
		}
		return nil
	}
	for step := 0; len(data) > 0 && step < maxArraySteps; step++ {
		cycle := int64(step+1) * 16
		ctx := fmt.Sprintf("%dx%d step %d", g.sets, g.ways, step)
		switch op := next() % arrayOps; op {
		case arrayProbe, arrayAccess, arrayFill:
			addr := uint64(next()) * arrayLineBytes
			flag := next()&1 != 0
			set, way, hit := opt.Probe(addr)
			rset, rway, rhit := ref.probe(addr)
			if set != rset || way != rway || hit != rhit {
				return fmt.Errorf("%s: Probe(%#x) = %d, %d, %v; reference %d, %d, %v",
					ctx, addr, set, way, hit, rset, rway, rhit)
			}
			switch {
			case op == arrayProbe:
				if v, rv := opt.Victim(set), ref.victim(set); v != rv {
					return fmt.Errorf("%s: Victim(%d) = %d, reference %d", ctx, set, v, rv)
				}
			case op == arrayAccess && hit:
				opt.AccessAt(set, way, flag, cycle)
				ref.accessAt(set, way, flag, cycle)
			case op == arrayFill && !hit:
				ev, evicted := opt.Fill(addr, flag, cycle)
				rev, revicted := ref.fill(addr, flag, cycle)
				if evicted != revicted || ev.Addr != rev.addr || ev.Dirty != rev.dirty {
					return fmt.Errorf("%s: Fill(%#x) evicted %+v, %v; reference %+v, %v",
						ctx, addr, ev, evicted, rev, revicted)
				}
			}
		case arrayInvalidate:
			if err := invalidate(ctx, next()%g.sets, next()%g.ways); err != nil {
				return err
			}
		case arrayFlush:
			var got, want []uint64
			opt.FlushDirty(func(_, _ int, addr uint64) { got = append(got, addr) })
			ref.flushDirty(func(addr uint64) { want = append(want, addr) })
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("%s: FlushDirty wrote back %#x, reference %#x", ctx, got, want)
			}
		case arrayActive:
			// SetActiveWays's contract: empty the ways beyond the new
			// bound before shrinking.
			n := 1 + next()%g.ways
			for set := 0; set < g.sets; set++ {
				for way := n; way < opt.ActiveWays(); way++ {
					if err := invalidate(ctx, set, way); err != nil {
						return err
					}
				}
			}
			opt.SetActiveWays(n)
			ref.activeWays = n
		}
		if err := compareArray(ctx, "array", opt, ref); err != nil {
			return err
		}
		if n, rn := opt.ValidLines(), ref.validLines(); n != rn {
			return fmt.Errorf("%s: %d valid lines, reference %d", ctx, n, rn)
		}
	}
	return nil
}

// arrayScenario builds an input for geometry g that fills more distinct
// lines than the array holds, rereads and rewrites some of them,
// invalidates and flushes, and shrinks and regrows the active ways.
func arrayScenario(g int) []byte {
	ways := arrayGeometries[g].ways
	lines := 2*arrayGeometries[g].sets*ways + 3
	if lines > 255 {
		lines = 255
	}
	data := []byte{byte(g)}
	for l := 0; l < lines; l++ {
		data = append(data, arrayFill, byte(l), byte(l%3&1))
		data = append(data, arrayAccess, byte(l/2), byte(l&1))
		if l%5 == 0 {
			data = append(data, arrayProbe, byte(l/3), 0)
		}
	}
	data = append(data, arrayInvalidate, 0, byte(ways/2), arrayFlush)
	data = append(data, arrayActive, byte((ways+1)/2-1))
	for l := 0; l < lines; l += 2 {
		data = append(data, arrayFill, byte(255-l), 1, arrayProbe, byte(l), 0)
	}
	data = append(data, arrayActive, byte(ways-1), arrayFlush)
	return data
}

// FuzzCacheArray holds cache.Cache to the reference array operation by
// operation, on geometries the bank-level FuzzDifferential never
// builds. The committed corpus in testdata/fuzz/FuzzCacheArray replays
// on every plain `go test` run.
func FuzzCacheArray(f *testing.F) {
	for g := range arrayGeometries {
		f.Add(arrayScenario(g))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := diffArray(data); err != nil {
			t.Fatal(err)
		}
	})
}
