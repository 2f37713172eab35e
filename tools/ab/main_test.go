package main

import (
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `goos: linux
BenchmarkReplayMany/K=8-2 	      30	  40166622 ns/op	        40.16 ns/access	 8558480 B/op	    2606 allocs/op
BenchmarkTable1DeviceModel-2             	   13209	     89179 ns/op
--- BENCH: BenchmarkNoise-2
    bench_test.go:12: 3 things
PASS
ok  	sttllc/internal/sim	0.163s
`
	rows := parseBench(out)
	if len(rows) != 2 {
		t.Fatalf("parsed %d rows, want 2: %+v", len(rows), rows)
	}
	r := rows[0]
	if r.name != "BenchmarkReplayMany/K=8-2" || r.n != 30 {
		t.Errorf("row 0 = %s N=%d", r.name, r.n)
	}
	if strings.Join(r.units, " ") != "ns/op ns/access B/op allocs/op" || r.vals[3] != 2606 {
		t.Errorf("row 0 units %v values %v", r.units, r.vals)
	}
	if rows[1].n != 13209 || rows[1].vals[0] != 89179 {
		t.Errorf("row 1 = %+v", rows[1])
	}
}

func TestRowRegexpMatchesOnlyItsRow(t *testing.T) {
	suffix := ""
	if p := runtime.GOMAXPROCS(0); p > 1 {
		suffix = "-" + strconv.Itoa(p)
	}
	re := rowRegexp("BenchmarkAdmit/sweep-5x4" + suffix)
	parts := strings.Split(re, "/")
	for _, tc := range []struct {
		name []string
		want bool
	}{
		{[]string{"BenchmarkAdmit", "sweep-5x4"}, true},
		{[]string{"BenchmarkAdmit", "sweep-5x40"}, false},
		{[]string{"BenchmarkAdmitX", "sweep-5x4"}, false},
	} {
		got := true
		for i, p := range parts {
			got = got && regexp.MustCompile(p).MatchString(tc.name[i])
		}
		if got != tc.want {
			t.Errorf("%s on %v = %t, want %t", re, tc.name, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	ten := func(v float64) []float64 {
		xs := make([]float64, pairs)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	noisy := func(center float64, rel ...float64) []float64 {
		xs := make([]float64, len(rel))
		for i, r := range rel {
			xs[i] = center * (1 + r)
		}
		return xs
	}
	jitter := []float64{-0.01, 0.01, 0, 0.02, -0.02, 0.01, -0.01, 0, 0.015, -0.015}
	for _, tc := range []struct {
		name string
		m    metric
		fail bool
	}{
		{"same allocs", metric{unit: "allocs/op", better: -1, vals: [2][]float64{ten(40), ten(40)}}, false},
		{"one more alloc", metric{unit: "allocs/op", better: -1, vals: [2][]float64{ten(40), ten(41)}}, true},
		{"alloc spread overlaps", metric{unit: "allocs/op", better: -1, vals: [2][]float64{noisy(100, 0, 0.01, 0, 0, 0, 0, 0, 0, 0, 0), ten(101)}}, false},
		{"time unchanged", metric{unit: "ns/op", better: -1, vals: [2][]float64{noisy(100, jitter...), noisy(100, append(jitter[3:], jitter[:3]...)...)}}, false},
		{"time 10% slower", metric{unit: "ns/op", better: -1, vals: [2][]float64{noisy(100, jitter...), noisy(110, jitter...)}}, true},
		{"time 3% slower", metric{unit: "ns/op", better: -1, vals: [2][]float64{noisy(100, jitter...), noisy(103, jitter...)}}, false},
		{"time 10% slower in 9 pairs, the other far faster", metric{unit: "ns/op", better: -1,
			vals: [2][]float64{noisy(100, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.2), ten(110)}}, false},
		{"time 10% slower in 9 pairs, the other barely faster", metric{unit: "ns/op", better: -1,
			vals: [2][]float64{noisy(100, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.11), ten(110)}}, true},
		{"time 10% slower in 8 pairs", metric{unit: "ns/op", better: -1,
			vals: [2][]float64{noisy(100, 0, 0, 0, 0, 0, 0, 0, 0, 0.11, 0.11), ten(110)}}, false},
		{"bound within", metric{better: 1, bound: 0.25, vals: [2][]float64{ten(100), ten(80)}}, false},
		{"bound beyond", metric{better: 1, bound: 0.25, vals: [2][]float64{ten(100), ten(70)}}, true},
		{"bound lower is better", metric{better: -1, bound: 0.25, vals: [2][]float64{ten(100), ten(130)}}, true},
		{"new row", metric{unit: "ns/op", better: -1, vals: [2][]float64{1: ten(1)}}, false},
		{"ungated", metric{unit: "B/op", vals: [2][]float64{ten(1), ten(9)}}, false},
	} {
		m := tc.m
		if _, fail := verdict(&m); fail != tc.fail {
			t.Errorf("%s: fail = %t, want %t", tc.name, fail, tc.fail)
		}
	}
}

func TestParsePerfbench(t *testing.T) {
	got := map[string]float64{}
	add := func(name, unit string, v float64) { got[name+" "+unit] = v }
	ok := "env x\nmetric jobs_per_s   93.1 1/s\nmetric wall_s 7.5 s\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {}}\n"
	if err := parsePerfbench(ok, add); err != nil {
		t.Fatal(err)
	}
	if got["jobs_per_s 1/s"] != 93.1 || got["wall_s s"] != 7.5 {
		t.Errorf("parsed %v", got)
	}
	bad := "metric wall_s 7.5 s\n{\"correct\": false, \"failed\": 0}\n"
	if err := parsePerfbench(bad, add); err == nil {
		t.Error("an incorrect run parsed without error")
	}
}

func TestLayoutUse(t *testing.T) {
	l := &layout{dir: t.TempDir(), cur: -1}
	for _, i := range []int{0, 1, 1, 0} {
		run, err := l.use(i)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.Readlink(run); err != nil || got != strconv.Itoa(i) {
			t.Errorf("after use(%d) run links to %q (%v)", i, got, err)
		}
	}
}
