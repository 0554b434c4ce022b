package encoding

import (
	"fmt"

	"repro/internal/tensor"
)

// Backing abstracts where a party's encoded training matrix lives: fully
// in memory (DenseBacking) or on disk in a gtvcol file with a bounded
// block cache (the backing returned by OpenOrEncode with Storage set).
// Trainers draw batches through it, so the same training loop runs
// in-core or out-of-core — bit-identically, since gtvcol round-trips
// float64 bit patterns exactly.
//
// A backing only knows physical rows, in the order it was encoded, and
// never re-orders them: a party that shuffles (training-with-shuffling)
// keeps its own logical→physical row order and maps indices before it
// calls in.
type Backing interface {
	// Rows returns the number of encoded rows.
	Rows() int
	// Width returns the encoded width.
	Width() int
	// GatherRows returns a pooled batch whose row k is physical row
	// idx[k]. The caller owns the result and must Release it when the
	// training step is done with it.
	//
	//shape: out(N,W)
	GatherRows(idx []int) (*tensor.Dense, error)
	// Dense returns the full encoded matrix with physical row p at row
	// pos[p]; a nil pos keeps the physical order. owned reports whether
	// the caller must Release it: columnar backings expand it per call
	// (the faithful-real-pass path; see DESIGN.md), the in-memory backing
	// returns its resident matrix when pos is nil.
	//
	//shape: out(R,W)
	Dense(pos []int32) (m *tensor.Dense, owned bool, err error)
	// Close releases file handles and caches; the in-memory backing is a
	// no-op.
	Close() error
}

// DenseBacking is the in-memory Backing: a thin wrapper over the encoded
// *tensor.Dense, preserving the pre-gtvcol behavior exactly.
type DenseBacking struct {
	m *tensor.Dense
}

// NewDenseBacking wraps an encoded matrix.
//
//shape: in(N,W)
func NewDenseBacking(m *tensor.Dense) *DenseBacking { return &DenseBacking{m: m} }

// Rows implements Backing.
func (b *DenseBacking) Rows() int { return b.m.Rows() }

// Width implements Backing.
func (b *DenseBacking) Width() int { return b.m.Cols() }

// GatherRows implements Backing. The result comes from the tensor pool.
//
//shape: out(N,W)
func (b *DenseBacking) GatherRows(idx []int) (*tensor.Dense, error) {
	return b.m.GatherRows(idx), nil
}

// Dense implements Backing: the resident matrix, not owned by the caller,
// or a pooled copy in pos order that the caller owns.
//
//shape: out(R,W)
func (b *DenseBacking) Dense(pos []int32) (*tensor.Dense, bool, error) {
	if pos == nil {
		return b.m, false, nil
	}
	if len(pos) != b.m.Rows() {
		return nil, false, fmt.Errorf("encoding: row map length %d for %d rows", len(pos), b.m.Rows())
	}
	m := tensor.NewPooledUninit(b.m.Rows(), b.m.Cols())
	for p, at := range pos {
		copy(m.RawRow(int(at)), b.m.RawRow(p))
	}
	return m, true, nil
}

// Close implements Backing.
func (b *DenseBacking) Close() error { return nil }
