package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100 .. 1
	}
	v, ok := percentile(xs, 0.9)
	if !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v (ok %v), want 90 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Fatal("p90 of 99 samples has 9 beyond it and must not be reported as supported")
	}
	if v := tailValue(xs[:20], 0.9); v != 100 {
		t.Fatalf("tailValue with too few samples = %v, want the maximum 100", v)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported ok")
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestUnionLength(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name   string
		ivs    []interval
		lo, hi time.Duration
		want   time.Duration
	}{
		{"empty", nil, 0, 10 * ms, 0},
		{"disjoint", []interval{{0, 2 * ms}, {5 * ms, 6 * ms}}, 0, 10 * ms, 3 * ms},
		{"concurrent calls count once", []interval{{1 * ms, 5 * ms}, {2 * ms, 4 * ms}, {3 * ms, 7 * ms}}, 0, 10 * ms, 6 * ms},
		{"touching", []interval{{0, 2 * ms}, {2 * ms, 3 * ms}}, 0, 10 * ms, 3 * ms},
		{"unsorted", []interval{{6 * ms, 8 * ms}, {0, 1 * ms}}, 0, 10 * ms, 3 * ms},
		{"clipped to the round", []interval{{0, 4 * ms}, {8 * ms, 12 * ms}}, 2 * ms, 10 * ms, 4 * ms},
		{"outside the round", []interval{{0, 1 * ms}, {11 * ms, 12 * ms}}, 2 * ms, 10 * ms, 0},
	}
	for _, c := range cases {
		if got := unionLength(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("%s: union = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, name := range []string{"run_s", "vfl.client.EndRound.ms_p50", "cpu.runtime_gc.share", "9lives", "a-b"} {
		if !validMetricName(name) {
			t.Errorf("%q rejected", name)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, name := range []string{"", "_run", ".x", "round ms", "ms/round", "a+b", "é", string(long)} {
		if validMetricName(name) {
			t.Errorf("%q accepted", name)
		}
	}
	m := newMetricSet()
	m.add("ok", "s", 1)
	m.add("ok", "s", 2)
	if m.err == nil {
		t.Error("a duplicate metric was accepted")
	}
	m = newMetricSet()
	m.add("nan", "s", math.NaN())
	if m.err == nil {
		t.Error("a NaN metric was accepted")
	}
	for _, d := range append(append([]metricDecl(nil), endToEndMetrics...), perLayerMetrics()...) {
		if !validMetricName(d.name) {
			t.Errorf("declared metric %q has an invalid name", d.name)
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations pins BENCHMARK.json to the metrics
// and workloads the program reports, so neither can drift alone.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit, Better, Why string }
	var spec struct {
		Workloads []decl
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []decl, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics())
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestCheckTable(t *testing.T) {
	specs := []encoding.ColumnSpec{
		{Name: "x", Kind: encoding.KindContinuous},
		{Name: "c", Kind: encoding.KindCategorical, Categories: []string{"a", "b"}},
	}
	good := tensor.New(2, 2)
	good.Set(0, 0, 1.5)
	good.Set(1, 1, 1)
	ref, err := encoding.NewTable(specs, good)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTable(ref, ref, 2); err != nil {
		t.Fatalf("a valid table failed: %v", err)
	}
	if err := checkTable(ref, ref, 3); err == nil {
		t.Error("a short table passed")
	}
	for _, bad := range []struct {
		col int
		v   float64
	}{{0, math.NaN()}, {0, math.Inf(1)}, {1, 2}, {1, -1}, {1, 0.5}} {
		m := good.Clone()
		m.Set(0, bad.col, bad.v)
		pub := &encoding.Table{Specs: specs, Data: m}
		if err := checkTable(pub, ref, 2); err == nil {
			t.Errorf("cell %v in column %d passed", bad.v, bad.col)
		}
	}
	renamed := append([]encoding.ColumnSpec(nil), specs...)
	renamed[0].Name = "y"
	if err := checkTable(&encoding.Table{Specs: renamed, Data: good}, ref, 2); err == nil {
		t.Error("a table with another schema passed")
	}
	if tableHash(ref) == tableHash(&encoding.Table{Specs: specs, Data: good.Clone()}) {
		m := good.Clone()
		m.Set(0, 0, math.Nextafter(1.5, 2))
		if tableHash(ref) == tableHash(&encoding.Table{Specs: specs, Data: m}) {
			t.Error("a one-ulp change left the table hash unchanged")
		}
	} else {
		t.Error("equal tables hash differently")
	}
}

func TestCPUGroup(t *testing.T) {
	cases := map[string]string{
		"repro/internal/tensor.matmulAccRange":            "tensor",
		"repro/internal/vfl.(*Server).discStep.func1":     "vfl",
		"repro/internal/lint.Run":                         "other",
		"runtime.scanobject":                              "runtime_gc",
		"runtime.gcDrain":                                 "runtime_gc",
		"runtime.memmove":                                 "runtime_other",
		"internal/runtime/syscall.Syscall6":               "syscall",
		"math.archLog":                                    "math",
		"math/rand.(*Rand).Float64":                       "other",
		"main.(*bench).runOnce":                           "other",
		"repro/internal/coldata.(*Reader).GatherRowsInto": "coldata",
	}
	for fn, want := range cases {
		if got := cpuGroup(fn); got != want {
			t.Errorf("cpuGroup(%q) = %q, want %q", fn, got, want)
		}
	}
	out := []byte(`Type: cpu
Showing nodes accounting for 400ms, 100% of 400ms total
      flat  flat%   sum%        cum   cum%
     300ms 75.00% 75.00%      300ms 75.00%  repro/internal/tensor.matmulAccRange
     100ms 25.00%   100%      100ms 25.00%  runtime.scanobject
`)
	shares, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if shares["tensor"] != 0.75 || shares["runtime_gc"] != 0.25 || shares["vfl"] != 0 {
		t.Errorf("shares = %v", shares)
	}
}

// tiny is a fed-wire-shaped workload small enough for a unit test.
var tiny = workload{name: "tiny-wire", rows: 600, rounds: 4, synthRows: 64, federated: true, wire: true, ckptEvery: 2}

// TestDecoratorKeepsCommStats runs the same short gtvwire federation with
// and without the timing decorators on both sides of the connection. The
// decorator must forward the transport's byte counters (CommStats reads
// the same WireBytes) and must not perturb training (the same table).
func TestDecoratorKeepsCommStats(t *testing.T) {
	b := &bench{w: tiny, state: t.TempDir()}
	plain, err := b.runOnce(3, "", nil, &ledger{})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(true)
	timed, err := b.runOnce(3, "", tr, &ledger{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.comm.WireBytes == 0 {
		t.Fatal("the plain run measured no wire bytes")
	}
	if plain.comm != timed.comm {
		t.Errorf("CommStats differ:\nplain %v\ntimed %v", plain.comm, timed.comm)
	}
	if plain.hash != timed.hash {
		t.Error("the decorated run published a different table")
	}
	if n := len(tr.inside.durations(mEndRound)); n != 2*tiny.rounds {
		t.Errorf("recorded %d EndRound calls inside the clients, want %d", n, 2*tiny.rounds)
	}
	if n := len(tr.outside.durations(mSnapshot)); n != 2*tiny.rounds/tiny.ckptEvery {
		t.Errorf("recorded %d Snapshot calls at the server, want %d", n, 2*tiny.rounds/tiny.ckptEvery)
	}
	if len(timed.wait) != tiny.rounds || median(ms(timed.wait)) <= 0 {
		t.Errorf("client wait per round = %v", timed.wait)
	}
}

// TestStoredRunMatchesInMemory checks the prep's identity contract at a
// small size: a run from the encode-once store publishes the in-memory
// run's bytes and leaves the store files untouched.
func TestStoredRunMatchesInMemory(t *testing.T) {
	b := &bench{w: workload{name: "tiny-store", rows: 1500, rounds: 3, synthRows: 100, federated: true, stored: true}, state: t.TempDir()}
	led := &ledger{}
	dir, sig, ref, err := b.prepareStore(5, led)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.runOnce(5, dir, nil, led)
	if err != nil {
		t.Fatal(err)
	}
	b.checkRun(res, dir, sig, led)
	checkIdentity(res, ref, led)
	if led.failed != 0 {
		t.Fatalf("checks failed: %v", led.errs)
	}
	if err := os.WriteFile(filepath.Join(dir, sig[0].name), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	b.checkRun(res, dir, sig, led)
	if led.failed != 1 {
		t.Fatalf("a rewritten store file was not caught: %d failures", led.failed)
	}
}
