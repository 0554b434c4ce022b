package snap

// Section-payload codec. Enc and Dec embed the shared internal/bin
// primitives (little-endian fields, a sticky decode error, lengths bounded
// by the bytes that remain) and add only what is specific to gtvsnap:
// u32-prefixed byte strings and uint64 slices, and float64 matrices
// streamed from tensor.Dense.Data() on encode and into pooled buffers on
// decode. Snapshots always store float64 elements — a checkpoint exists
// to resume byte-identically, so the lossy float32 wire encoding has no
// place here.

import (
	"bytes"

	"repro/internal/bin"
	"repro/internal/tensor"
)

// Enc appends one section payload to the Builder's buffer.
type Enc struct{ bin.Enc }

// Bytes appends a u32 length and the bytes.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.Buf = append(e.Buf, b...)
}

func (e *Enc) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// Matrix appends m's shape and float64 elements straight from the backing
// storage; a nil matrix round-trips as nil (Adam moments that have not
// been created yet).
func (e *Enc) Matrix(m *tensor.Dense) {
	if m == nil {
		e.U8(0)
		return
	}
	e.U8(1)
	e.U32(uint32(m.Rows()))
	e.U32(uint32(m.Cols()))
	e.F64s(m.Data())
}

// Dec walks one section payload. The first decode error sticks; every
// subsequent read returns zero values, so callers check Finish once.
type Dec struct{ bin.Dec }

// NewDec starts decoding one section payload.
func NewDec(payload []byte) *Dec { return &Dec{bin.NewDec("gtvsnap: ", payload)} }

// Bytes returns a copy of a u32-length-prefixed byte string (a copy,
// because section payloads alias the decoded file image, which checkpoint
// loaders discard after restoring).
func (d *Dec) Bytes() []byte { return bytes.Clone(d.Take(d.Bound(uint64(d.U32()), 1))) }

func (d *Dec) U64s() []uint64 {
	n := d.Bound(uint64(d.U32()), 8)
	if d.Err() != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// Matrix decodes a matrix into a buffer drawn from the tensor free list
// (every element is overwritten). Ownership passes to the caller; restore
// paths copy into live parameter tensors and Release the decoded buffer.
func (d *Dec) Matrix() *tensor.Dense {
	if d.U8() == 0 {
		return nil
	}
	rows, cols, ok := d.Shape(uint64(d.U32()), uint64(d.U32()), 8, d.Remaining())
	if !ok {
		return nil
	}
	out := tensor.NewPooledUninit(rows, cols)
	d.F64s(out.Data())
	return out
}
