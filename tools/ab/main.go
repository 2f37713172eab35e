// Command ab is the repository's performance gate. It checks a base
// revision out in a temporary git worktree and runs it and the working
// tree alternately for ten pairs, the side that goes first swapping
// each pair, then prints per metric both medians, the base's relative
// IQR, the pairs' median change/base ratio, the pairs the change won
// and a verdict. It exits 1 on a FAIL verdict, 2 if it cannot measure.
//
//	go run ./tools/ab -base origin/main                  # go test benchmarks of ./...
//	go run ./tools/ab -base HEAD ./internal/core         # one package's rows
//	go run ./tools/ab -base HEAD -workload replay-sweep  # perfbench, seed 1
//
// Each side builds its test binaries with -trimpath, so identical code
// gives identical binaries, and both sides run under the same paths
// (see layout), so the two sides' processes differ in their binaries'
// contents alone. A 250ms probe fixes each row's iteration count N.
// Each pair first rewrites every binary to a new file, so that no side
// keeps one placement of its code in the page cache for the whole
// comparison. In the pair a row then runs in its own process five
// times per side at N/5 iterations, the sides taking turns; a side's
// value is the mean of its five. allocs/op fails when the
// change's fewest exceed the base's most; ns/op fails when the change
// is slower by a median of more than 7% and in all 10 pairs, or in all
// but the one with the smallest difference.
//
// With -workload, each run is BENCHMARK.json's command with --workload,
// --seed, --seconds <run_seconds> and --trace 0, and an end_to_end
// metric fails when its median worsens by more than its bound. After a
// kill, `git worktree prune` removes the stale base worktree.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

const (
	pairs     = 10
	probeTime = "250ms" // fixes each go benchmark row's iteration count
	repeats   = 5       // runs per side and row in a pair, in turn with the other side's
	// ns/op fails when the change is slower in all ten pairs, or in all
	// but the one with the smallest difference (Wilcoxon's signed-rank
	// sum of the slower pairs is at least 54 of 55), by a median of more
	// than minSlowdown. Were pairs exchangeable, an unchanged row would
	// pass that rank test with probability 2/1024 ("slower in at least
	// 9": 11/1024, 40% over a 46-row table). They are not quite: two
	// builds of the same code kept steady offsets of up to about 5% on
	// some rows over a whole run, which the floor stays above.
	minSlowdown = 0.07
)

// names are the two sides' names; index 0 is the base.
var names = [2]string{"base", "change"}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	workload := flag.String("workload", "", "compare perfbench runs of this workload instead of go benchmarks")
	seed := flag.Int("seed", 1, "perfbench input seed (1 default, 2 held out)")
	flag.Parse()
	if *base == "" || (*workload != "" && flag.NArg() > 0) {
		flag.Usage()
		os.Exit(2)
	}
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ms, err := measure(ctx, *base, *workload, *seed, pkgs)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(2)
	}
	if report(os.Stdout, ms) {
		os.Exit(1)
	}
}

// measure checks rev out beside the working tree and returns the
// metrics of ten alternating pairs.
func measure(ctx context.Context, rev, workload string, seed int, pkgs []string) ([]*metric, error) {
	root, err := output(ctx, "", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "ab-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if tmp, err = filepath.Abs(tmp); err != nil {
		return nil, err
	}
	roots := [2]string{filepath.Join(tmp, "base"), strings.TrimSpace(root)}
	if _, err := output(ctx, roots[1], "git", "worktree", "add", "--detach", "--quiet", roots[0], rev); err != nil {
		return nil, err
	}
	// Not ctx: the worktree must go even when ab is interrupted.
	defer exec.Command("git", "-C", roots[1], "worktree", "remove", "--force", roots[0]).Run()
	l := &layout{dir: tmp, cur: -1}
	for i, r := range roots {
		if err := os.Mkdir(l.side(i), 0o755); err != nil {
			return nil, err
		}
		if err := os.Symlink(r, filepath.Join(l.side(i), "src")); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "ab: base %s, change = working tree, %d pairs, GOMAXPROCS=%d\n", rev, pairs, runtime.GOMAXPROCS(0))
	if workload != "" {
		return perfbenchPairs(ctx, l, roots[1], workload, seed)
	}
	return goBenchPairs(ctx, l, roots, pkgs)
}

// layout runs both sides under the same paths. Directory dir/0 holds
// the base's test binaries and src, a link to its source tree; dir/1
// the same for the change; dir/run links to the side about to run, and
// every command runs through it. The two sides' processes then see the
// same argv[0], working directory and environment (PWD included).
// With a path per side and binaries written once, byte-identical
// binaries kept steady offsets of about 5% on some rows for a whole
// comparison.
type layout struct {
	dir string
	cur int // the side dir/run links to, -1 before the first run
}

// side is side i's own directory.
func (l *layout) side(i int) string { return filepath.Join(l.dir, strconv.Itoa(i)) }

// use points dir/run at side i and returns dir/run.
func (l *layout) use(i int) (string, error) {
	run := filepath.Join(l.dir, "run")
	if l.cur != i {
		if err := os.Remove(run); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return "", err
		}
		if err := os.Symlink(strconv.Itoa(i), run); err != nil {
			return "", err
		}
		l.cur = i
	}
	return run, nil
}

// output runs a command in dir and returns its standard output. A
// failure carries the command and the tail of its combined output.
func output(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		tail := stdout.String() + stderr.String()
		return "", fmt.Errorf("%s %s (in %s): %w\n%s", name, strings.Join(args, " "), dir, err, tail[max(0, len(tail)-4000):])
	}
	return stdout.String(), nil
}

// metric is one quantity with one value per pair for the base, vals[0],
// and the change, vals[1]; a row one side lacks has no values there.
type metric struct {
	name, unit string
	better     int     // -1: lower is better, +1: higher, 0: not gated
	bound      float64 // perfbench: allowed relative worsening
	vals       [2][]float64
}

// table collects metrics in first-seen order.
type table struct {
	list  []*metric
	index map[string]*metric
}

// add appends v to one side's values of a metric.
func (t *table) add(side int, name, unit string, v float64) *metric {
	key := name + " " + unit
	if t.index[key] == nil {
		if t.index == nil {
			t.index = map[string]*metric{}
		}
		t.index[key] = &metric{name: name, unit: unit}
		t.list = append(t.list, t.index[key])
	}
	m := t.index[key]
	m.vals[side] = append(m.vals[side], v)
	return m
}

// benchRow is one result line of go test -bench output.
type benchRow struct {
	name  string
	n     int
	vals  []float64
	units []string
}

// parseBench returns the result lines of go test -bench output.
func parseBench(out string) []benchRow {
	var rows []benchRow
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		n, err := strconv.Atoi(f[1])
		r := benchRow{name: f[0], n: n}
		for i := 2; err == nil && i < len(f); i += 2 {
			var v float64
			v, err = strconv.ParseFloat(f[i], 64)
			r.vals, r.units = append(r.vals, v), append(r.units, f[i+1])
		}
		if err == nil {
			rows = append(rows, r)
		}
	}
	return rows
}

// rowRegexp matches exactly the benchmark a result line names: each
// level of the name anchored, the -GOMAXPROCS suffix dropped.
func rowRegexp(name string) string {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		name = strings.TrimSuffix(name, "-"+strconv.Itoa(p))
	}
	parts := strings.Split(name, "/")
	for i, part := range parts {
		parts[i] = "^" + regexp.QuoteMeta(part) + "$"
	}
	return strings.Join(parts, "/")
}

// testBin is one package's compiled test binary on one side: file
// names it in the side's directory, rel is the package's directory
// relative to the source tree.
type testBin struct {
	side           int
	pkg, file, rel string
}

// buildTests compiles, into side i's directory, the test binary of
// every package in pkgs that has tests.
func buildTests(ctx context.Context, l *layout, i int, root string, pkgs []string) ([]testBin, error) {
	list, err := output(ctx, root, "go", append([]string{"list", "-f",
		"{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}\t{{.Dir}}{{end}}"}, pkgs...)...)
	var bins []testBin
	for _, line := range strings.Split(list, "\n") {
		pkg, dir, ok := strings.Cut(line, "\t")
		if !ok || err != nil {
			continue
		}
		b := testBin{side: i, pkg: pkg, file: strings.ReplaceAll(pkg, "/", "_") + ".test"}
		if b.rel, err = filepath.Rel(root, dir); err == nil {
			_, err = output(ctx, root, "go", "test", "-c", "-trimpath", "-o", filepath.Join(l.side(i), b.file), pkg)
		}
		bins = append(bins, b)
	}
	return bins, err
}

// run runs the benchmarks matching bench from the package directory,
// both through dir/run.
func (b testBin) run(ctx context.Context, l *layout, bench, benchtime string) ([]benchRow, error) {
	run, err := l.use(b.side)
	if err != nil {
		return nil, err
	}
	out, err := output(ctx, filepath.Join(run, "src", b.rel), filepath.Join(run, b.file), "-test.run=^$",
		"-test.bench="+bench, "-test.benchmem", "-test.benchtime="+benchtime, "-test.timeout=10m")
	return parseBench(out), err
}

// rewrite copies the binary to a new file that then replaces it.
func (b testBin) rewrite(l *layout) error {
	path := filepath.Join(l.side(b.side), b.file)
	data, err := os.ReadFile(path)
	if err == nil {
		err = os.WriteFile(path+".new", data, 0o755)
	}
	if err == nil {
		err = os.Rename(path+".new", path)
	}
	return err
}

// goBenchPairs measures every go benchmark in pkgs.
func goBenchPairs(ctx context.Context, l *layout, roots [2]string, pkgs []string) ([]*metric, error) {
	// A row is one benchmark of one package: the binary of each side
	// that has it and the iteration count the first side probed.
	type row struct {
		pkg, name string
		n         int
		bin       [2]*testBin
	}
	var rows []*row
	var all []testBin
	byName := map[string]*row{}
	for i, root := range roots {
		fmt.Fprintf(os.Stderr, "ab: building and probing %s\n", names[i])
		bins, err := buildTests(ctx, l, i, root, pkgs)
		if err != nil {
			return nil, err
		}
		all = append(all, bins...)
		for k, b := range bins {
			found, err := b.run(ctx, l, ".", probeTime)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", names[i], err)
			}
			for _, f := range found {
				key := b.pkg + "." + f.name
				if byName[key] == nil {
					byName[key] = &row{pkg: b.pkg, name: f.name, n: f.n}
					rows = append(rows, byName[key])
				}
				byName[key].bin[i] = &bins[k]
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].pkg < rows[j].pkg })

	var t table
	for p := 0; p < pairs; p++ {
		fmt.Fprintf(os.Stderr, "ab: pair %d/%d\n", p+1, pairs)
		for _, b := range all {
			if err := b.rewrite(l); err != nil {
				return nil, err
			}
		}
		for _, r := range rows {
			var sums [2][]float64
			var units [2][]string
			iters := strconv.Itoa(max(1, r.n/repeats)) + "x"
			for j := 0; j < repeats; j++ {
				for _, i := range [2]int{p % 2, 1 - p%2} {
					if r.bin[i] == nil {
						continue
					}
					found, err := r.bin[i].run(ctx, l, rowRegexp(r.name), iters)
					if err == nil && (len(found) != 1 || found[0].name != r.name) {
						err = fmt.Errorf("%s %s: run gave %d rows, want this row alone", r.pkg, r.name, len(found))
					}
					if err != nil {
						return nil, fmt.Errorf("%s: %w", names[i], err)
					}
					if sums[i] == nil {
						units[i], sums[i] = found[0].units, make([]float64, len(found[0].vals))
					}
					for k, v := range found[0].vals {
						sums[i][k] += v
					}
				}
			}
			for i, sum := range sums {
				for k, v := range sum {
					m := t.add(i, r.pkg+"."+strings.TrimPrefix(r.name, "Benchmark"), units[i][k], v/repeats)
					if m.unit == "ns/op" || m.unit == "allocs/op" {
						m.better = -1
					}
				}
			}
		}
	}
	return t.list, nil
}

// perfbenchPairs measures the end-to-end metrics of one perfbench
// workload, with the command, run length and bounds of the working
// tree's BENCHMARK.json, each run from dir/run/src.
func perfbenchPairs(ctx context.Context, l *layout, root, workload string, seed int) ([]*metric, error) {
	var spec struct {
		Command    []string `json:"command"`
		RunSeconds int      `json:"run_seconds"`
		EndToEnd   []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err == nil && (len(spec.Command) == 0 || spec.RunSeconds < 1) {
		err = errors.New("no command or run_seconds")
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	args := append(spec.Command[1:len(spec.Command):len(spec.Command)], "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
	var t table
	for p := 0; p < pairs; p++ {
		for _, i := range [2]int{p % 2, 1 - p%2} {
			fmt.Fprintf(os.Stderr, "ab: pair %d/%d, %s\n", p+1, pairs, names[i])
			run, err := l.use(i)
			var out string
			if err == nil {
				out, err = output(ctx, filepath.Join(run, "src"), spec.Command[0], args...)
			}
			if err == nil {
				err = parsePerfbench(out, func(name, unit string, v float64) {
					m := t.add(i, name, unit, v)
					for _, e := range spec.EndToEnd {
						if e.Name == name {
							m.bound, m.better = e.Bound, -1
							if e.Better == "higher" {
								m.better = 1
							}
						}
					}
				})
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", names[i], err)
			}
		}
	}
	return t.list, nil
}

// parsePerfbench passes each "metric NAME VALUE UNIT" line of one
// perfbench run to add, and fails unless the run's closing JSON summary
// says its outputs were correct.
func parsePerfbench(out string, add func(name, unit string, v float64)) error {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, line := range lines {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "metric" {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return fmt.Errorf("perfbench line %q: %w", line, err)
			}
			add(f[1], f[3], v)
		}
	}
	var sum struct{ Correct bool } // false when any operation failed
	if json.Unmarshal([]byte(lines[len(lines)-1]), &sum) != nil || !sum.Correct {
		return fmt.Errorf("perfbench run not correct: %s", lines[len(lines)-1])
	}
	return nil
}

// verdict judges one metric; fail is true when it gates the change out.
func verdict(m *metric) (text string, fail bool) {
	b, c := m.vals[0], m.vals[1]
	switch {
	case len(b) == 0:
		return "new", false
	case len(c) == 0:
		return "gone", false
	case len(b) != len(c):
		return "FAIL unpaired", true
	case m.better == 0:
		return "-", false
	case m.bound > 0:
		if worse := (median(c) - median(b)) / median(b) * float64(-m.better); worse > m.bound {
			return fmt.Sprintf("FAIL worse by %.0f%% > %.0f%%", 100*worse, 100*m.bound), true
		}
	case m.unit == "allocs/op":
		if quantile(c, 0) > quantile(b, 1) {
			return "FAIL more", true
		}
	case m.unit == "ns/op":
		if n := len(c); slowRanks(b, c) >= n*(n+1)/2-1 && median(ratios(m))-1 > minSlowdown {
			return "FAIL slower", true
		}
	}
	return "ok", false
}

// report prints one line per metric and returns whether any failed.
func report(w io.Writer, ms []*metric) (anyFail bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tbase\tchange\tbase IQR\tratio\twins\tverdict\t")
	for _, m := range ms {
		text, fail := verdict(m)
		anyFail = anyFail || fail
		col := []string{"-", "-", "-", "-", "-", text}
		for i, v := range m.vals {
			if len(v) > 0 {
				col[i] = fmt.Sprintf("%.4g", median(v))
			}
		}
		if b := m.vals[0]; len(b) > 0 && median(b) != 0 {
			col[2] = fmt.Sprintf("%.1f%%", 100*(quantile(b, 0.75)-quantile(b, 0.25))/median(b))
		}
		if len(m.vals[0]) > 0 && len(m.vals[0]) == len(m.vals[1]) {
			col[3] = fmt.Sprintf("%.3f", median(ratios(m)))
			if m.better != 0 {
				col[4] = fmt.Sprintf("%d/%d", wins(m, m.better), len(m.vals[0]))
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t\n", m.name, m.unit, strings.Join(col, "\t"))
	}
	tw.Flush()
	if anyFail {
		fmt.Fprintln(w, "ab: FAIL")
		return true
	}
	fmt.Fprintln(w, "ab: ok")
	return false
}

// ratios is change/base pair by pair; equal values give 1, zeros
// included.
func ratios(m *metric) []float64 {
	r := make([]float64, len(m.vals[0]))
	for i, b := range m.vals[0] {
		if r[i] = 1; m.vals[1][i] != b {
			r[i] = m.vals[1][i] / b
		}
	}
	return r
}

// wins counts the pairs in which the change is strictly better, given
// which direction is better; ties count for neither side.
func wins(m *metric, better int) int {
	n := 0
	for i, b := range m.vals[0] {
		if (m.vals[1][i]-b)*float64(better) > 0 {
			n++
		}
	}
	return n
}

// slowRanks ranks the pairs 1..n by |change-base| and sums the ranks
// of those in which the change is larger.
func slowRanks(base, change []float64) int {
	idx := make([]int, len(base))
	for i := range idx {
		idx[i] = i
	}
	dist := func(i int) float64 { return math.Abs(change[i] - base[i]) }
	sort.SliceStable(idx, func(x, y int) bool { return dist(idx[x]) < dist(idx[y]) })
	w := 0
	for rank, i := range idx {
		if change[i] > base[i] {
			w += rank + 1
		}
	}
	return w
}

// quantile is the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
