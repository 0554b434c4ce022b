package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minTail is the number of samples that must lie above a reported
// percentile: a percentile with fewer samples beyond it is a guess about
// the largest few values, not a percentile.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count) and 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minTail samples lie beyond its rank. A caller that
// reports the value as a percentile must check ok.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	rank := nearestRank(len(s), q)
	return s[rank-1], len(s)-rank >= minTail
}

// nearestRank is the 1-based rank of the q-quantile among n samples.
func nearestRank(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailValue is percentile where it is supported by minTail samples beyond
// it, and the maximum otherwise: with too few samples the largest one is
// the only honest tail figure.
func tailValue(xs []float64, q float64) float64 {
	if v, ok := percentile(xs, q); ok {
		return v
	}
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// interval is a half-open span [start, end) of offsets from a shared
// origin.
type interval struct{ start, end time.Duration }

// unionLength returns how much of [lo, hi) is covered by at least one of
// the intervals. Overlapping intervals (concurrent client calls) count
// once.
func unionLength(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is a legal metric name: it starts
// with a letter or digit and is at most 64 letters, digits, '_', '.' and
// '-'.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the metrics one invocation reports, rejecting bad
// names, duplicates and non-finite values as they are added.
type metricSet struct {
	order  []string
	values map[string]metric
	err    error
}

func newMetricSet() *metricSet { return &metricSet{values: map[string]metric{}} }

func (m *metricSet) add(name, unit string, v float64) {
	if m.err != nil {
		return
	}
	switch {
	case !validMetricName(name):
		m.err = fmt.Errorf("invalid metric name %q", name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		m.err = fmt.Errorf("metric %s is not finite (%v)", name, v)
	default:
		if _, dup := m.values[name]; dup {
			m.err = fmt.Errorf("metric %s reported twice", name)
			return
		}
		m.order = append(m.order, name)
		m.values[name] = metric{Value: v, Unit: unit}
	}
}

// metricDecl names a metric and its unit as BENCHMARK.json declares it.
type metricDecl struct{ name, unit string }

// endToEndMetrics are what an untraced invocation reports.
var endToEndMetrics = []metricDecl{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"train_samples_per_s", "1/s"},
	{"round_ms_p50", "ms"},
	{"round_ms_p90", "ms"},
	{"synth_rows_per_s", "1/s"},
	{"live_heap_mb", "MiB"},
}

// perLayerMetrics are what a traced invocation reports.
func perLayerMetrics() []metricDecl {
	d := []metricDecl{
		{"datasets.generate_s", "s"},
		{"encoding.fit_s", "s"},
		{"encoding.transform_s", "s"},
		{"encoding.open_store_s", "s"},
		{"condvec.sampler_build_s", "s"},
		{"vfl.server.handshake_s", "s"},
	}
	for _, m := range reportedMethods {
		p := "vfl.client." + methodNames[m]
		d = append(d, metricDecl{p + ".calls", "count"}, metricDecl{p + ".ms_p50", "ms"},
			metricDecl{p + ".ms_p90", "ms"}, metricDecl{p + ".ms_total", "ms"})
	}
	for _, m := range reportedMethods {
		p := "gtvwire." + methodNames[m]
		d = append(d, metricDecl{p + ".overhead_ms_total", "ms"}, metricDecl{p + ".bytes", "bytes"})
	}
	d = append(d,
		metricDecl{"gtvwire.mb_per_round", "MiB"},
		metricDecl{"trace.round_ms_p50", "ms"},
		metricDecl{"vfl.server.self_ms_p50", "ms"},
		metricDecl{"vfl.server.client_wait_ms_p50", "ms"},
		metricDecl{"snap.checkpoint_ms_p50", "ms"},
		metricDecl{"snap.checkpoint_bytes", "bytes"},
		metricDecl{"synthesize_s", "s"},
		metricDecl{"runtime.alloc_mb_per_round", "MiB"},
		metricDecl{"runtime.allocs_per_round", "count"},
		metricDecl{"runtime.gc_cycles_per_round", "count"},
		metricDecl{"runtime.peak_rss_mb", "MiB"},
	)
	for _, g := range cpuGroups {
		d = append(d, metricDecl{"cpu." + g + ".share", "ratio"})
	}
	return append(d,
		metricDecl{"stats.similarity_s", "s"},
		metricDecl{"quality.avg_jsd", "ratio"},
		metricDecl{"quality.diff_corr", "ratio"},
		metricDecl{"trace.overhead_s", "s"},
	)
}

// matches reports whether the set holds exactly the declared metrics, in
// order, with their units.
func (m *metricSet) matches(decls []metricDecl) error {
	if m.err != nil {
		return m.err
	}
	if len(m.order) != len(decls) {
		return fmt.Errorf("reported %d metrics, declared %d", len(m.order), len(decls))
	}
	for i, d := range decls {
		if m.order[i] != d.name || m.values[d.name].Unit != d.unit {
			return fmt.Errorf("metric %d is %s (%s), declared %s (%s)", i, m.order[i], m.values[m.order[i]].Unit, d.name, d.unit)
		}
	}
	return nil
}
