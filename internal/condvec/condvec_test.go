package condvec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/encoding"
	"repro/internal/gmm"
	"repro/internal/tensor"
)

// buildTable makes a table with two categorical columns (2 and 3 categories,
// imbalanced) and one continuous column.
func buildTable(t *testing.T, rng *rand.Rand, rows int) (*encoding.Table, *encoding.Transformer) {
	t.Helper()
	data := tensor.New(rows, 3)
	for i := 0; i < rows; i++ {
		row := data.RawRow(i)
		if rng.Float64() < 0.9 {
			row[0] = 0 // 90/10 imbalance
		} else {
			row[0] = 1
		}
		row[1] = float64(rng.Intn(3))
		row[2] = rng.NormFloat64()
	}
	tbl, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "binary", Kind: encoding.KindCategorical, Categories: []string{"a", "b"}},
		{Name: "ternary", Kind: encoding.KindCategorical, Categories: []string{"x", "y", "z"}},
		{Name: "cont", Kind: encoding.KindContinuous},
	}, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	tr, err := encoding.FitTransformer(rng, tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	return tbl, tr
}

func TestSamplerWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl, tr := buildTable(t, rng, 200)
	s, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	if s.Width() != 5 { // 2 + 3 categories
		t.Fatalf("Width = %d want 5", s.Width())
	}
	if s.NumSpans() != 2 {
		t.Fatalf("NumSpans = %d want 2", s.NumSpans())
	}
	if s.SpanOffset(0) != 0 || s.SpanOffset(1) != 2 {
		t.Fatalf("offsets = %d,%d", s.SpanOffset(0), s.SpanOffset(1))
	}
}

func TestSampleOneBitSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tbl, tr := buildTable(t, rng, 200)
	s, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	batch, err := s.Sample(rng, 64)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	for b := 0; b < 64; b++ {
		ones := 0
		for j := 0; j < s.Width(); j++ {
			switch batch.CV.At(b, j) {
			case 1:
				ones++
			case 0:
			default:
				t.Fatalf("CV has non-binary value %v", batch.CV.At(b, j))
			}
		}
		if ones != 1 {
			t.Fatalf("CV row %d has %d ones, want exactly 1", b, ones)
		}
	}
}

func TestSampledRowMatchesCondition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl, tr := buildTable(t, rng, 200)
	s, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	batch, err := s.Sample(rng, 128)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	for b, choice := range batch.Choices {
		col := s.Spans()[choice.Span].Column
		if got := int(tbl.Data.At(batch.Rows[b], col)); got != choice.Category {
			t.Fatalf("CV %d selects category %d of column %d, but sampled row has %d",
				b, choice.Category, col, got)
		}
	}
}

func TestLogFrequencyOversamplesMinority(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tbl, tr := buildTable(t, rng, 1000)
	s, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	var minority, total int
	for trial := 0; trial < 50; trial++ {
		batch, err := s.Sample(rng, 100)
		if err != nil {
			t.Fatalf("Sample: %v", err)
		}
		for _, c := range batch.Choices {
			if c.Span == 0 {
				total++
				if c.Category == 1 {
					minority++
				}
			}
		}
	}
	frac := float64(minority) / float64(total)
	// Raw frequency of the minority class is 10%; log-frequency sampling
	// must lift it well above that (to roughly log-ratio balance).
	if frac < 0.2 {
		t.Fatalf("minority sampled at %v, want > 0.2 under log-frequency sampling", frac)
	}
}

func TestReindexAfterShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl, tr := buildTable(t, rng, 100)
	s, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	perm := tensor.Permutation(rng, 100)
	shuffled := tbl.ShuffleRows(perm)
	if err := s.Reindex(perm); err != nil {
		t.Fatalf("Reindex: %v", err)
	}
	batch, err := s.Sample(rng, 64)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	for b, choice := range batch.Choices {
		col := s.Spans()[choice.Span].Column
		if got := int(shuffled.Data.At(batch.Rows[b], col)); got != choice.Category {
			t.Fatalf("after reindex: CV %d category %d, shuffled row value %d", b, choice.Category, got)
		}
	}
}

func TestReindexErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tbl, tr := buildTable(t, rng, 10)
	s, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	if err := s.Reindex([]int{0, 1}); err == nil {
		t.Fatal("expected length error")
	}
	bad := make([]int, 10)
	bad[0] = 99
	if err := s.Reindex(bad); err == nil {
		t.Fatal("expected invalid-entry error")
	}
}

// TestMapRowsMatchesReindex: handing the sampler a physical→logical row
// map draws exactly the rows a physically reindexed sampler draws, from
// the same generator stream.
func TestMapRowsMatchesReindex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tbl, tr := buildTable(t, rng, 200)
	reindexed, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	mapped, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	perm := tensor.Permutation(rng, 200)
	if err := reindexed.Reindex(perm); err != nil {
		t.Fatalf("Reindex: %v", err)
	}
	pos := make([]int32, len(perm))
	for k, old := range perm {
		pos[old] = int32(k)
	}
	if err := mapped.MapRows(pos[:10]); err == nil {
		t.Fatal("MapRows accepted a short row map")
	}
	if err := mapped.MapRows(pos); err != nil {
		t.Fatalf("MapRows: %v", err)
	}
	draws := map[string]func(*Sampler, *rand.Rand) (*Batch, error){
		"Sample":          func(s *Sampler, r *rand.Rand) (*Batch, error) { return s.Sample(r, 64) },
		"SampleSynthesis": func(s *Sampler, r *rand.Rand) (*Batch, error) { return s.SampleSynthesis(r, 64) },
		"SampleFixed":     func(s *Sampler, r *rand.Rand) (*Batch, error) { return s.SampleFixed(r, 16, 1, 2) },
	}
	for name, draw := range draws {
		want, err := draw(reindexed, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s (reindexed): %v", name, err)
		}
		got, err := draw(mapped, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s (mapped): %v", name, err)
		}
		for b := range want.Rows {
			if got.Rows[b] != want.Rows[b] || got.Choices[b] != want.Choices[b] {
				t.Fatalf("%s draw %d: mapped row %d, reindexed row %d", name, b, got.Rows[b], want.Rows[b])
			}
		}
	}
	if err := mapped.Reindex(perm); err == nil {
		t.Fatal("Reindex accepted a sampler with a row map")
	}
}

func TestNoCategoricalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := tensor.Randn(rng, 50, 2, 0, 1)
	tbl, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "c1", Kind: encoding.KindContinuous},
		{Name: "c2", Kind: encoding.KindContinuous},
	}, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	tr, err := encoding.FitTransformer(rng, tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	s, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	if s.Width() != 0 {
		t.Fatalf("Width = %d want 0", s.Width())
	}
	batch, err := s.Sample(rng, 8)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if batch.CV.Cols() != 0 || len(batch.Rows) != 8 {
		t.Fatalf("batch = %dx%d rows %d", batch.CV.Rows(), batch.CV.Cols(), len(batch.Rows))
	}
	for _, r := range batch.Rows {
		if r < 0 || r >= 50 {
			t.Fatalf("row index %d out of range", r)
		}
	}
}

func TestSampleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tbl, tr := buildTable(t, rng, 10)
	s, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	if _, err := s.Sample(rng, 0); err == nil {
		t.Fatal("expected error for batch 0")
	}
}

// Property: for any table and batch, every sampled row index is valid and
// every CV row has exactly one bit set matching its recorded choice.
func TestQuickCVValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 20 + rng.Intn(100)
		data := tensor.New(rows, 2)
		k := 2 + rng.Intn(4)
		for i := 0; i < rows; i++ {
			data.Set(i, 0, float64(rng.Intn(k)))
			data.Set(i, 1, rng.NormFloat64())
		}
		cats := make([]string, k)
		for i := range cats {
			cats[i] = string(rune('a' + i))
		}
		tbl, err := encoding.NewTable([]encoding.ColumnSpec{
			{Name: "cat", Kind: encoding.KindCategorical, Categories: cats},
			{Name: "cont", Kind: encoding.KindContinuous},
		}, data)
		if err != nil {
			return false
		}
		tr, err := encoding.FitTransformer(rng, tbl, gmm.DefaultConfig())
		if err != nil {
			return false
		}
		s, err := NewSampler(tbl, tr)
		if err != nil {
			return false
		}
		batch, err := s.Sample(rng, 16)
		if err != nil {
			return false
		}
		for b := 0; b < 16; b++ {
			if batch.Rows[b] < 0 || batch.Rows[b] >= rows {
				return false
			}
			choice := batch.Choices[b]
			var sum float64
			for j := 0; j < s.Width(); j++ {
				sum += batch.CV.At(b, j)
			}
			if math.Abs(sum-1) > 0 {
				return false
			}
			if batch.CV.At(b, s.SpanOffset(choice.Span)+choice.Category) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tbl, tr := buildTable(t, rng, 200)
	s, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	batch, err := s.SampleFixed(rng, 32, 1, 2) // ternary column, category z
	if err != nil {
		t.Fatalf("SampleFixed: %v", err)
	}
	for b := 0; b < 32; b++ {
		if batch.CV.At(b, s.SpanOffset(1)+2) != 1 {
			t.Fatalf("CV %d does not select the fixed category", b)
		}
		if batch.Choices[b].Span != 1 || batch.Choices[b].Category != 2 {
			t.Fatalf("choice %d = %+v", b, batch.Choices[b])
		}
		col := s.Spans()[1].Column
		if got := int(tbl.Data.At(batch.Rows[b], col)); got != 2 {
			t.Fatalf("sampled row %d has category %d want 2", b, got)
		}
	}
}

func TestSampleFixedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tbl, tr := buildTable(t, rng, 50)
	s, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	if _, err := s.SampleFixed(rng, 0, 0, 0); err == nil {
		t.Fatal("expected batch error")
	}
	if _, err := s.SampleFixed(rng, 4, 9, 0); err == nil {
		t.Fatal("expected span range error")
	}
	if _, err := s.SampleFixed(rng, 4, 0, 9); err == nil {
		t.Fatal("expected category range error")
	}
}

// TestSampleHotMatchesCV: the Hot slice the samplers attach (consumed by
// the wire encoder's one-hot fast path) must agree exactly with the CV
// matrix — Hot[b] is the single set column, or -1 for an all-zero row.
func TestSampleHotMatchesCV(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tbl, tr := buildTable(t, rng, 200)
	s, err := NewSampler(tbl, tr)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	check := func(label string, batch *Batch) {
		t.Helper()
		if len(batch.Hot) != batch.CV.Rows() {
			t.Fatalf("%s: Hot length %d for %d rows", label, len(batch.Hot), batch.CV.Rows())
		}
		for b, h := range batch.Hot {
			for j := 0; j < batch.CV.Cols(); j++ {
				want := 0.0
				if j == h {
					want = 1
				}
				if batch.CV.At(b, j) != want {
					t.Fatalf("%s: row %d col %d = %v with Hot=%d", label, b, j, batch.CV.At(b, j), h)
				}
			}
		}
	}
	batch, err := s.Sample(rng, 64)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	check("Sample", batch)
	batch, err = s.SampleSynthesis(rng, 64)
	if err != nil {
		t.Fatalf("SampleSynthesis: %v", err)
	}
	check("SampleSynthesis", batch)
	batch, err = s.SampleFixed(rng, 16, 1, 2)
	if err != nil {
		t.Fatalf("SampleFixed: %v", err)
	}
	check("SampleFixed", batch)
}
