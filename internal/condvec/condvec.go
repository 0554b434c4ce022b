// Package condvec implements CTGAN's conditional-vector machinery
// ("training-by-sampling") for one party's categorical columns.
//
// A conditional vector (CV) is the concatenation of one one-hot block per
// categorical column; exactly one bit is set across the whole vector,
// naming one category of one column. CVs are sampled by first choosing a
// column uniformly and then a category from the column's log-frequency
// distribution, which over-samples minority categories so the GAN does not
// collapse onto majority classes. Alongside each CV, a matching training-row
// index is sampled from the rows whose column value equals the chosen
// category — the idx_p of the GTV paper.
package condvec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

// Choice records which column and category a sampled CV selects, as needed
// for the generator's conditioning cross-entropy loss.
type Choice struct {
	// Span is the index into the sampler's categorical span list.
	Span int
	// Category is the selected category within that span.
	Category int
}

// Batch is one sampled batch of conditional vectors.
type Batch struct {
	// CV is batch x Width, one one-hot condition per row.
	//
	//shape: (N,W)
	CV *tensor.Dense
	// Rows holds, per CV, the index of a real training row matching the
	// condition (the idx_p the selected client shares with the server).
	Rows []int
	// Choices records the selected span/category per CV.
	Choices []Choice
	// Hot holds, per CV row, the position of its single 1 bit (-1 for an
	// all-zero row, which only zero-width samplers produce). It is the
	// sparse representation of CV: transports and embedding code can read
	// one index per row instead of scanning Width columns. Always populated
	// by the samplers; len(Hot) == CV.Rows() marks it trustworthy.
	Hot []int
}

// Sampler draws conditional vectors and matching row indices for one
// party's local table.
type Sampler struct {
	spans    []encoding.Span
	width    int
	numRows  int
	probs    [][]float64 // per span: log-frequency category distribution
	rawProbs [][]float64 // per span: raw category frequencies
	// catRows indexes real training rows by category value as one flat
	// int32 array per span (rows grouped by category, ascending row order
	// within each group); catOff[i][c] is the group start of category c,
	// with a trailing end sentinel. The flat layout costs 4 bytes per row
	// per categorical column — the only per-row state the out-of-core data
	// plane keeps resident — instead of a ragged slice-of-slices. The
	// idx_p drawn from it reveal which rows match a condition.
	//privacy:source matching-row indices (idx_p)
	catRows [][]int32
	catOff  [][]int32
	// rowOf, when set by MapRows, maps a catRows entry (a physical row of
	// the table the sampler was built from) to the row's logical position;
	// nil is identity.
	rowOf []int32
	// offsets[i] is the first CV position of span i (spans are re-based to
	// the CV coordinate space, which contains only categorical one-hots).
	offsets []int
}

// candidates returns the (possibly empty) row group matching category cat
// of span i.
func (s *Sampler) candidates(i, cat int) []int32 {
	return s.catRows[i][s.catOff[i][cat]:s.catOff[i][cat+1]]
}

// pick draws one row of a non-empty candidate group, in logical order.
func (s *Sampler) pick(rng *rand.Rand, candidates []int32) int {
	p := candidates[rng.Intn(len(candidates))]
	if s.rowOf != nil {
		return int(s.rowOf[p])
	}
	return int(p)
}

// MapRows makes every row drawn from the category index come back as
// pos[row]: a party that keeps its table in physical order and presents a
// shuffled logical order passes its physical→logical map here instead of
// rewriting the index. Uniform draws (zero-width samplers, empty
// categories) are taken directly in the logical space. The sampler keeps
// pos, not a copy, so later in-place updates by the caller are seen; nil
// restores identity.
func (s *Sampler) MapRows(pos []int32) error {
	if pos != nil && len(pos) != s.numRows {
		return fmt.Errorf("condvec: row map length %d, table has %d rows", len(pos), s.numRows)
	}
	s.rowOf = pos
	return nil
}

// NewSampler builds a sampler from a party's raw table and its fitted
// transformer. Tables without categorical columns yield a zero-width
// sampler whose Sample returns empty CVs and uniform row indices.
func NewSampler(t *encoding.Table, tr *encoding.Transformer) (*Sampler, error) {
	if t.Rows() == 0 {
		return nil, errors.New("condvec: empty table")
	}
	if t.Rows() > math.MaxInt32 {
		return nil, fmt.Errorf("condvec: %d rows exceed the int32 row-index space", t.Rows())
	}
	spans := tr.CategoricalSpans()
	s := &Sampler{
		spans:    spans,
		numRows:  t.Rows(),
		probs:    make([][]float64, len(spans)),
		rawProbs: make([][]float64, len(spans)),
		catRows:  make([][]int32, len(spans)),
		catOff:   make([][]int32, len(spans)),
		offsets:  make([]int, len(spans)),
	}
	for i, sp := range spans {
		s.offsets[i] = s.width
		s.width += sp.Width

		freq, err := encoding.CategoryFrequencies(t, sp.Column)
		if err != nil {
			return nil, fmt.Errorf("condvec: span %d: %w", i, err)
		}
		// Log-frequency sampling: p_k proportional to log(1 + count_k).
		probs := make([]float64, len(freq))
		var total float64
		for k, f := range freq {
			probs[k] = math.Log1p(f * float64(t.Rows()))
			total += probs[k]
		}
		if total <= 0 {
			return nil, fmt.Errorf("condvec: column %d has no observed categories", sp.Column)
		}
		for k := range probs {
			probs[k] /= total
		}
		s.probs[i] = probs
		s.rawProbs[i] = freq

		// Counting sort into the flat per-span index: one pass to count,
		// one to place. Ascending row order within each category matches
		// the append order the ragged layout used to produce, so sampling
		// draws identical rows from identical RNG streams.
		col := t.Column(sp.Column)
		off := make([]int32, len(freq)+1)
		for _, v := range col {
			off[int(v)+1]++
		}
		for c := 1; c < len(off); c++ {
			off[c] += off[c-1]
		}
		rows := make([]int32, len(col))
		next := append([]int32(nil), off[:len(freq)]...)
		for row, v := range col {
			c := int(v)
			rows[next[c]] = int32(row)
			next[c]++
		}
		s.catRows[i] = rows
		s.catOff[i] = off
	}
	return s, nil
}

// Width returns the conditional-vector width (total categories across the
// party's categorical columns).
func (s *Sampler) Width() int { return s.width }

// NumSpans returns the number of conditionable columns.
func (s *Sampler) NumSpans() int { return len(s.spans) }

// SpanOffset returns the CV offset of categorical span i.
func (s *Sampler) SpanOffset(i int) int { return s.offsets[i] }

// Spans returns the categorical spans (in encoded-data coordinates) the
// sampler conditions on.
func (s *Sampler) Spans() []encoding.Span { return s.spans }

// Sample draws a training batch of conditional vectors with matching row
// indices, using log-frequency category sampling (which over-represents
// minority categories, CTGAN's anti-mode-collapse device).
func (s *Sampler) Sample(rng *rand.Rand, batch int) (*Batch, error) {
	return s.sample(rng, batch, s.probs)
}

// SampleSynthesis draws conditional vectors from the *raw* category
// frequencies, which is what CTGAN uses at generation time so the synthetic
// marginals match the training data rather than the rebalanced training
// distribution.
func (s *Sampler) SampleSynthesis(rng *rand.Rand, batch int) (*Batch, error) {
	return s.sample(rng, batch, s.rawProbs)
}

func (s *Sampler) sample(rng *rand.Rand, batch int, probs [][]float64) (*Batch, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("condvec: batch size %d must be positive", batch)
	}
	cv := tensor.New(batch, s.width)
	rows := make([]int, batch)
	choices := make([]Choice, batch)
	hot := make([]int, batch)
	for b := 0; b < batch; b++ {
		if len(s.spans) == 0 {
			// No categorical columns: unconditioned row sampling.
			rows[b] = rng.Intn(s.numRows)
			choices[b] = Choice{Span: -1, Category: -1}
			hot[b] = -1
			continue
		}
		span := rng.Intn(len(s.spans))
		cat := sampleDiscrete(rng, probs[span])
		candidates := s.candidates(span, cat)
		if len(candidates) == 0 {
			// Category absent from current data (cannot happen with
			// frequencies derived from the same table, but guard anyway).
			rows[b] = rng.Intn(s.numRows)
		} else {
			rows[b] = s.pick(rng, candidates)
		}
		cv.Set(b, s.offsets[span]+cat, 1)
		choices[b] = Choice{Span: span, Category: cat}
		hot[b] = s.offsets[span] + cat
	}
	return &Batch{CV: cv, Rows: rows, Choices: choices, Hot: hot}, nil
}

// Reindex updates the sampler's row-index lists after the party physically
// shuffles its local data with permutation perm (new row k holds old row
// perm[k]). It rewrites the whole index, so training parties compose a row
// map (MapRows) instead; the two cannot be combined.
func (s *Sampler) Reindex(perm []int) error {
	if s.rowOf != nil {
		return errors.New("condvec: Reindex on a sampler with a row map")
	}
	if len(perm) != s.numRows {
		return fmt.Errorf("condvec: permutation length %d, table has %d rows", len(perm), s.numRows)
	}
	// invert: old row i is now at position inv[i].
	inv := make([]int, len(perm))
	for k, old := range perm {
		if old < 0 || old >= len(perm) {
			return fmt.Errorf("condvec: invalid permutation entry %d", old)
		}
		inv[old] = k
	}
	for i := range s.catRows {
		lst := s.catRows[i]
		for k, old := range lst {
			lst[k] = int32(inv[old])
		}
	}
	return nil
}

// sampleDiscrete draws an index from the given probability vector.
func sampleDiscrete(rng *rand.Rand, probs []float64) int {
	u := rng.Float64()
	var cum float64
	for i, p := range probs {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(probs) - 1
}

// SampleFixed builds a batch whose every conditional vector selects the
// given category of categorical span spanIdx — the "control the class of
// generation" use of CVs. Row indices are drawn from the matching rows.
func (s *Sampler) SampleFixed(rng *rand.Rand, batch, spanIdx, category int) (*Batch, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("condvec: batch size %d must be positive", batch)
	}
	if spanIdx < 0 || spanIdx >= len(s.spans) {
		return nil, fmt.Errorf("condvec: span %d out of range %d", spanIdx, len(s.spans))
	}
	if category < 0 || category >= s.spans[spanIdx].Width {
		return nil, fmt.Errorf("condvec: category %d out of range %d", category, s.spans[spanIdx].Width)
	}
	cv := tensor.New(batch, s.width)
	rows := make([]int, batch)
	choices := make([]Choice, batch)
	hot := make([]int, batch)
	candidates := s.candidates(spanIdx, category)
	for b := 0; b < batch; b++ {
		cv.Set(b, s.offsets[spanIdx]+category, 1)
		if len(candidates) > 0 {
			rows[b] = s.pick(rng, candidates)
		} else {
			rows[b] = rng.Intn(s.numRows)
		}
		choices[b] = Choice{Span: spanIdx, Category: category}
		hot[b] = s.offsets[spanIdx] + category
	}
	return &Batch{CV: cv, Rows: rows, Choices: choices, Hot: hot}, nil
}
