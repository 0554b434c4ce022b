package vfl

// Payload codec for the gtvwire frame protocol (see wire.go for the frame
// layout). wireEnc and wireDec embed the shared internal/bin primitives —
// encoders append to a pooled byte buffer, decoders walk a received
// payload with a sticky error, so malformed frames surface as one
// descriptive error instead of a panic (FuzzWireFrameDecode holds the
// codec to that) — and add the matrix layouts and the protocol's
// composite types.

import (
	"bytes"
	"math"

	"repro/internal/bin"
	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// Matrix element encodings. The elemSize byte stored per matrix is
// authoritative on decode, so a float32 sender and a float64 reader always
// agree on the byte layout.
const (
	wireElemF64 = 8
	wireElemF32 = 4
)

// Matrix payload layouts: the first byte of every matrix field. The
// encoder scans each matrix once and picks the cheapest faithful layout,
// so layout choice is invisible to decoded values — every layout is
// lossless for the matrices it admits (f32 element rounding excepted,
// exactly as in the dense layout) and the sparse ones only apply when the
// scan proves they reproduce the matrix bit-for-bit.
const (
	wireLayoutNil    = 0 // absent matrix (the old presence byte 0)
	wireLayoutDense  = 1 // raw little-endian elements
	wireLayoutOneHot = 2 // 0/1 matrix, at most one 1 per row: per-row index
	wireLayoutBitmap = 3 // 0/1 matrix: row-major LSB-first bitmap
	wireLayoutSparse = 4 // low density: delta-coded index list plus values
)

// Bit patterns the density scan classifies against. Comparing bits rather
// than values keeps the scan lint-clean (no float ==) and strict: -0.0 and
// denormals near 1 are NOT 0/1, so the bit-set layouts can materialize
// exact +0.0/+1.0 on decode.
const (
	wireBitsZero = 0
	wireBitsOne  = 0x3FF0000000000000
)

// wireEnc accumulates one frame payload.
type wireEnc struct{ bin.Enc }

func newWireEnc() *wireEnc { return &wireEnc{bin.Enc{Buf: getWireBuf(0)}} }

// release hands the payload buffer back to the frame-buffer free list.
func (e *wireEnc) release() {
	putWireBuf(e.Buf)
	e.Buf = nil
}

// bytes appends a length-prefixed opaque byte string (checkpoint blobs).
func (e *wireEnc) bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.Buf = append(e.Buf, b...)
}

func (e *wireEnc) ints(v []int) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Varint(int64(x))
	}
}

// matrix appends m's shape and elements under the cheapest faithful
// layout: conditional vectors and hard Gumbel outputs (exactly one +1.0
// per row) travel as per-row indices, 0/1 masks as bitmaps, top-k
// sparsified gradients as delta-coded index lists, and everything else as
// raw little-endian elements read directly from the tensor's backing
// storage. f32 selects the lossy float32 element encoding for the layouts
// that carry element bytes (dense, index-list); the bit-set layouts are
// exact in either mode.
func (e *wireEnc) matrix(m *tensor.Dense, f32 bool) {
	if m == nil {
		e.U8(wireLayoutNil)
		return
	}
	switch scanWireMatrix(m) {
	case wireLayoutOneHot:
		e.matrixOneHot(m)
	case wireLayoutBitmap:
		e.matrixBitmap(m)
	case wireLayoutSparse:
		e.matrixSparse(m, f32)
	default:
		e.matrixDense(m, f32)
	}
}

// scanWireMatrix classifies m's density in one pass over the raw bits:
// all elements exactly +0.0/+1.0 with at most one 1 per row selects the
// one-hot layout, any 0/1 mix the bitmap, at most a quarter nonzero the
// index list, everything else (including matrices above the sparse
// decode-allocation cap) the dense layout. The scan bails out to dense as
// soon as a non-0/1 value and a quarter-density nonzero count have both
// been seen, so dense activation payloads pay ~n/4 element reads, not a
// full classification.
func scanWireMatrix(m *tensor.Dense) byte {
	data := m.Data()
	n := len(data)
	cols := m.Cols()
	if n == 0 || n > wireMaxSparseElems {
		return wireLayoutDense
	}
	cutoff := n / 4
	nnz := 0
	all01 := true
	oneHot := cols > 0
	rowNnz, rowEnd := 0, cols
	for i, v := range data {
		if i == rowEnd {
			rowNnz, rowEnd = 0, rowEnd+cols
		}
		bits := math.Float64bits(v)
		if bits == wireBitsZero {
			continue
		}
		nnz++
		if bits != wireBitsOne {
			all01 = false
			if nnz > cutoff {
				return wireLayoutDense
			}
		}
		rowNnz++
		if rowNnz > 1 {
			oneHot = false
		}
	}
	switch {
	case all01 && oneHot:
		return wireLayoutOneHot
	case all01:
		return wireLayoutBitmap
	case nnz <= cutoff:
		return wireLayoutSparse
	}
	return wireLayoutDense
}

func (e *wireEnc) matrixDense(m *tensor.Dense, f32 bool) {
	e.U8(wireLayoutDense)
	e.Uvarint(uint64(m.Rows()))
	e.Uvarint(uint64(m.Cols()))
	if f32 {
		e.U8(wireElemF32)
		e.F32s(m.Data())
		return
	}
	e.U8(wireElemF64)
	e.F64s(m.Data())
}

// matrixOneHot writes one varint per row: the hot column plus one, zero
// meaning an all-zero row. ~1 byte/row instead of 8 bytes/element.
func (e *wireEnc) matrixOneHot(m *tensor.Dense) {
	e.U8(wireLayoutOneHot)
	rows, cols := m.Rows(), m.Cols()
	e.Uvarint(uint64(rows))
	e.Uvarint(uint64(cols))
	for i := 0; i < rows; i++ {
		hot := uint64(0)
		for j, v := range m.RawRow(i) {
			if math.Float64bits(v) == wireBitsOne {
				hot = uint64(j) + 1
				break
			}
		}
		e.Uvarint(hot)
	}
}

// matrixHot is matrixOneHot fed from a precomputed hot-index slice
// (condvec.Batch.Hot, hot[i] < 0 for an all-zero row), skipping the
// density scan and the per-row search entirely. A hot slice that does not
// cover every row falls back to the scanning encoder.
func (e *wireEnc) matrixHot(m *tensor.Dense, hot []int) {
	if m == nil || len(hot) != m.Rows() {
		e.matrix(m, false)
		return
	}
	e.U8(wireLayoutOneHot)
	e.Uvarint(uint64(m.Rows()))
	e.Uvarint(uint64(m.Cols()))
	for _, h := range hot {
		if h < 0 {
			e.Uvarint(0)
		} else {
			e.Uvarint(uint64(h) + 1)
		}
	}
}

// matrixBitmap packs a 0/1 matrix into a row-major LSB-first bitmap over
// the flattened element index: n/8 bytes instead of 8n.
func (e *wireEnc) matrixBitmap(m *tensor.Dense) {
	e.U8(wireLayoutBitmap)
	rows, cols := m.Rows(), m.Cols()
	e.Uvarint(uint64(rows))
	e.Uvarint(uint64(cols))
	data := m.Data()
	nbytes := (len(data) + 7) / 8
	e.Grow(nbytes)
	start := len(e.Buf)
	e.Buf = e.Buf[:start+nbytes]
	clear(e.Buf[start:])
	for i, v := range data {
		if math.Float64bits(v) == wireBitsOne {
			e.Buf[start+i/8] |= 1 << (uint(i) % 8)
		}
	}
}

// matrixSparse writes the nonzero elements as a delta-coded ascending
// index list with their values — the layout top-k sparsified gradients
// take, ~(1+elemSize) bytes per nonzero.
func (e *wireEnc) matrixSparse(m *tensor.Dense, f32 bool) {
	e.U8(wireLayoutSparse)
	e.Uvarint(uint64(m.Rows()))
	e.Uvarint(uint64(m.Cols()))
	data := m.Data()
	elem := byte(wireElemF64)
	if f32 {
		elem = wireElemF32
	}
	e.U8(elem)
	nnz := 0
	for _, v := range data {
		if math.Float64bits(v) != wireBitsZero {
			nnz++
		}
	}
	e.Uvarint(uint64(nnz))
	prev := -1
	for i, v := range data {
		if math.Float64bits(v) == wireBitsZero {
			continue
		}
		if prev < 0 {
			e.Uvarint(uint64(i))
		} else {
			e.Uvarint(uint64(i - prev))
		}
		prev = i
		if f32 {
			e.F32(v)
		} else {
			e.F64(v)
		}
	}
}

func (e *wireEnc) choices(cs []condvec.Choice) {
	e.Uvarint(uint64(len(cs)))
	for _, c := range cs {
		e.Varint(int64(c.Span))
		e.Varint(int64(c.Category))
	}
}

// cvBatch rides the Batch.Hot sparse representation straight onto the wire
// when the sampler provided it, skipping the density scan.
func (e *wireEnc) cvBatch(b *condvec.Batch, f32 bool) {
	if b.CV != nil && len(b.Hot) == b.CV.Rows() {
		e.matrixHot(b.CV, b.Hot)
	} else {
		e.matrix(b.CV, f32)
	}
	e.ints(b.Rows)
	e.choices(b.Choices)
}

func (e *wireEnc) table(t *encoding.Table, f32 bool) {
	encoding.EncodeSpecs(&e.Enc, t.Specs)
	e.matrix(t.Data, f32)
}

func (e *wireEnc) setup(s Setup) {
	e.I64(int64(s.Plan.DiscServer))
	e.I64(int64(s.Plan.DiscClient))
	e.I64(int64(s.Plan.GenServer))
	e.I64(int64(s.Plan.GenClient))
	e.I64(int64(s.SliceWidth))
	e.I64(int64(s.GenBlockWidth))
	e.I64(int64(s.DiscWidth))
	e.F64(s.LR)
	e.I64(s.Seed)
}

func (e *wireEnc) clientInfo(i ClientInfo) {
	e.I64(int64(i.Features))
	e.I64(int64(i.EncodedWidth))
	e.I64(int64(i.CVWidth))
	e.I64(int64(i.Rows))
}

// wireDec walks one received frame payload. The first decode error sticks;
// every subsequent read returns zero values, so callers check Finish once
// at the end.
type wireDec struct{ bin.Dec }

func newWireDec(payload []byte) *wireDec { return &wireDec{bin.NewDec("gtvwire: ", payload)} }

// bytes decodes a length-prefixed opaque byte string into a fresh copy:
// the frame buffer it would otherwise alias is pooled and reused as soon
// as the call dispatches.
func (d *wireDec) bytes() []byte { return bytes.Clone(d.Take(d.Count(1))) }

func (d *wireDec) ints() []int {
	// Each encoded int is at least one byte.
	n := d.Count(1)
	if d.Err() != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.Varint())
	}
	return out
}

// matrix decodes a matrix in any wire layout into a buffer drawn from the
// tensor free list, so the receive path allocates nothing when a
// same-shape buffer was Released by an earlier step. Ownership passes to
// the caller; see the release rules in wireclient.go / wireserver.go for
// who hands it back.
func (d *wireDec) matrix() *tensor.Dense {
	m, _ := d.matrixHot()
	return m
}

// matrixHot decodes a matrix and, for the one-hot layout, also returns the
// per-row hot indices (-1 for an all-zero row) so conditional-vector
// receivers can keep the sparse representation alongside the dense tensor.
// Other layouts return a nil hot slice.
//
// The shape bound differs by layout: the dense layout carries every
// element, so the payload bytes left bound rows×cols×elemSize; the sparse
// layouts cost far less than 8 B/element on the wire, so their dense
// expansion is capped at wireMaxSparseElems — without the cap a tiny
// frame could claim a huge shape and make the decoder allocate gigabytes.
func (d *wireDec) matrixHot() (*tensor.Dense, []int) {
	layout := d.U8()
	if d.Err() != nil || layout == wireLayoutNil {
		return nil, nil
	}
	rows, cols := d.Uvarint(), d.Uvarint()
	switch layout {
	case wireLayoutDense:
		return d.matrixDense(rows, cols), nil
	case wireLayoutOneHot:
		return d.matrixOneHot(rows, cols)
	case wireLayoutBitmap:
		return d.matrixBitmap(rows, cols), nil
	case wireLayoutSparse:
		return d.matrixSparse(rows, cols), nil
	}
	d.Failf("invalid matrix layout %d", layout)
	return nil, nil
}

// elemSize reads a matrix element-size byte.
func (d *wireDec) elemSize() int {
	elem := int(d.U8())
	if d.Err() == nil && elem != wireElemF64 && elem != wireElemF32 {
		d.Failf("invalid matrix element size %d", elem)
	}
	return elem
}

func (d *wireDec) matrixDense(rows, cols uint64) *tensor.Dense {
	elem := d.elemSize()
	r, c, ok := d.Shape(rows, cols, elem, d.Remaining())
	if !ok {
		return nil
	}
	out := tensor.NewPooledUninit(r, c)
	if elem == wireElemF32 {
		d.F32s(out.Data())
	} else {
		d.F64s(out.Data())
	}
	return out
}

func (d *wireDec) matrixOneHot(rows, cols uint64) (*tensor.Dense, []int) {
	// A failed check sticks in d. Each row costs at least one varint byte.
	r, c, _ := d.Shape(rows, cols, 1, wireMaxSparseElems)
	d.Bound(uint64(r), 1)
	if d.Err() != nil {
		return nil, nil
	}
	hot := make([]int, r)
	for i := range hot {
		h := d.Uvarint()
		if d.Err() != nil {
			return nil, nil
		}
		if h == 0 {
			hot[i] = -1
			continue
		}
		if h > cols {
			d.Failf("one-hot index %d out of range for %d columns", h-1, cols)
			return nil, nil
		}
		hot[i] = int(h) - 1
	}
	return tensor.NewPooledOneHot(r, c, hot), hot
}

func (d *wireDec) matrixBitmap(rows, cols uint64) *tensor.Dense {
	r, c, ok := d.Shape(rows, cols, 1, wireMaxSparseElems)
	if !ok {
		return nil
	}
	n := r * c
	raw := d.Take((n + 7) / 8)
	if raw == nil {
		return nil
	}
	// Trailing pad bits must be zero so each matrix has exactly one
	// encoding (golden fixtures and the byte-accounting tests rely on it).
	if n%8 != 0 && raw[len(raw)-1]>>(uint(n)%8) != 0 {
		d.Failf("bitmap matrix has nonzero padding bits")
		return nil
	}
	return tensor.NewPooledBitmap(r, c, raw)
}

func (d *wireDec) matrixSparse(rows, cols uint64) *tensor.Dense {
	// A failed check sticks in d. Each entry costs at least one index
	// byte plus elem value bytes.
	r, c, _ := d.Shape(rows, cols, 1, wireMaxSparseElems)
	elem := d.elemSize()
	nnz := d.Count(1 + elem)
	if d.Err() != nil {
		return nil
	}
	n := r * c
	out := tensor.NewPooled(r, c)
	data := out.Data()
	pos := -1
	for range nnz {
		delta := d.Uvarint()
		if d.Err() != nil {
			out.Release()
			return nil
		}
		if pos < 0 {
			pos = int(delta)
		} else if delta == 0 || delta > uint64(n) {
			d.Failf("sparse matrix index delta %d not strictly ascending", delta)
			out.Release()
			return nil
		} else {
			pos += int(delta)
		}
		if pos < 0 || pos >= n {
			d.Failf("sparse matrix index %d out of range for %d elements", pos, n)
			out.Release()
			return nil
		}
		if elem == wireElemF32 {
			data[pos] = d.F32()
		} else {
			data[pos] = d.F64()
		}
		if d.Err() != nil {
			out.Release()
			return nil
		}
	}
	return out
}

func (d *wireDec) choices() []condvec.Choice {
	// Each choice costs at least two varint bytes.
	n := d.Count(2)
	if d.Err() != nil {
		return nil
	}
	out := make([]condvec.Choice, n)
	for i := range out {
		out[i].Span = int(d.Varint())
		out[i].Category = int(d.Varint())
	}
	return out
}

func (d *wireDec) cvBatch() *condvec.Batch {
	cv, hot := d.matrixHot()
	return &condvec.Batch{CV: cv, Hot: hot, Rows: d.ints(), Choices: d.choices()}
}

func (d *wireDec) table() *encoding.Table {
	return &encoding.Table{Specs: encoding.DecodeSpecs(&d.Dec), Data: d.matrix()}
}

func (d *wireDec) setup() Setup {
	return Setup{
		Plan: Plan{
			DiscServer: int(d.I64()),
			DiscClient: int(d.I64()),
			GenServer:  int(d.I64()),
			GenClient:  int(d.I64()),
		},
		SliceWidth:    int(d.I64()),
		GenBlockWidth: int(d.I64()),
		DiscWidth:     int(d.I64()),
		LR:            d.F64(),
		Seed:          d.I64(),
	}
}

func (d *wireDec) clientInfo() ClientInfo {
	return ClientInfo{
		Features:     int(d.I64()),
		EncodedWidth: int(d.I64()),
		CVWidth:      int(d.I64()),
		Rows:         int(d.I64()),
	}
}
