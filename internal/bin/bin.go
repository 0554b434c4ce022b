// Package bin holds the binary primitives shared by every GTV byte format:
// gtvwire frame payloads (internal/vfl), gtvsnap sections (internal/snap),
// the gtvcol footer and blocks (internal/coldata) and the colstore metadata
// blobs (internal/encoding).
//
// Enc appends fixed-width little-endian integers and floats, LEB128
// uvarints and zigzag varints. Dec walks a buffer with a sticky first
// error, so a decoder reads as a straight-line field list and checks once
// at the end; after a failure every read returns zero values. Every length
// Dec hands out is bounded by the bytes that remain before it can size an
// allocation: Count and Bound for element counts, Shape for matrix shapes
// (overflow-checked), Take for raw byte runs. A hostile buffer therefore
// yields an error, never a panic or an allocation larger than the input.
//
// The package imports only the standard library; matrix types stay with
// their codecs, which feed element runs through F64s/F32s.
package bin

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Enc appends encoded fields to Buf.
type Enc struct {
	Buf []byte
}

func (e *Enc) U8(v byte)        { e.Buf = append(e.Buf, v) }
func (e *Enc) U32(v uint32)     { e.Buf = binary.LittleEndian.AppendUint32(e.Buf, v) }
func (e *Enc) U64(v uint64)     { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v) }
func (e *Enc) I64(v int64)      { e.U64(uint64(v)) }
func (e *Enc) F64(v float64)    { e.U64(math.Float64bits(v)) }
func (e *Enc) F32(v float64)    { e.U32(math.Float32bits(float32(v))) }
func (e *Enc) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// Varint appends a zigzag-coded signed varint: small magnitudes of either
// sign stay one byte.
func (e *Enc) Varint(v int64) { e.Buf = binary.AppendVarint(e.Buf, v) }

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a uvarint length and the string bytes.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Grow ensures room for n more bytes, so element loops never re-grow the
// buffer mid-run.
func (e *Enc) Grow(n int) {
	if cap(e.Buf)-len(e.Buf) >= n {
		return
	}
	nb := make([]byte, len(e.Buf), len(e.Buf)+n)
	copy(nb, e.Buf)
	e.Buf = nb
}

// F64s appends every element of v as little-endian float64 bits.
func (e *Enc) F64s(v []float64) {
	e.Grow(8 * len(v))
	for _, x := range v {
		e.F64(x)
	}
}

// F32s appends every element of v rounded to float32 (the lossy wire
// payload mode).
func (e *Enc) F32s(v []float64) {
	e.Grow(4 * len(v))
	for _, x := range v {
		e.F32(x)
	}
}

// UvarintLen returns the encoded size of v as a uvarint.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarintLen returns the encoded size of v as a zigzag varint.
func VarintLen(v int64) int { return UvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// Dec decodes fields from one buffer. The first failure sticks: later
// reads return zero values and Err/Finish report it.
type Dec struct {
	buf    []byte
	off    int
	err    error
	prefix string
}

// NewDec starts decoding buf; prefix (e.g. "gtvsnap: ") starts every error
// message. It returns a value so codec packages can embed a Dec without a
// second allocation.
func NewDec(prefix string, buf []byte) Dec { return Dec{buf: buf, prefix: prefix} }

// Failf marks the decoder failed with a formatted message (%w wraps); the
// first failure sticks.
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.prefix+format, args...)
	}
}

// Err reports the sticky error without the trailing-bytes check, so
// multi-stage decoders can stop early on a poisoned buffer.
func (d *Dec) Err() error { return d.err }

// Remaining reports how many undecoded bytes are left.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Finish reports the sticky error, also flagging unconsumed trailing bytes
// (the symptom of an encoder/decoder mismatch).
func (d *Dec) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.Failf("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

// Take returns the next n bytes, aliasing the buffer, or nil after failing
// the decoder when fewer remain.
func (d *Dec) Take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.Failf("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Dec) U8() byte {
	if b := d.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if b := d.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if b := d.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Dec) F32() float64 { return float64(math.Float32frombits(d.U32())) }
func (d *Dec) Bool() bool   { return d.U8() != 0 }

// Uvarint decodes an unsigned LEB128 varint. Truncation and values
// overflowing 64 bits both fail the decoder.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Failf("invalid varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint decodes a zigzag-coded signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.Failf("invalid varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Str decodes a uvarint-length-prefixed string (a copy).
func (d *Dec) Str() string { return string(d.Take(d.Count(1))) }

// Count reads a uvarint element count and bounds it by the bytes left:
// each element costs at least minBytesPerElem encoded bytes, so a count
// the remaining input cannot hold fails before it sizes an allocation.
// It returns 0 on failure.
func (d *Dec) Count(minBytesPerElem int) int { return d.Bound(d.Uvarint(), minBytesPerElem) }

// Bound is Count for a count already read (from any field width).
func (d *Dec) Bound(n uint64, minBytesPerElem int) int {
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()/minBytesPerElem) {
		d.Failf("count %d exceeds the %d bytes left at offset %d", n, d.Remaining(), d.off)
		return 0
	}
	return int(n)
}

// Shape checks that a rows×cols matrix of elemSize-byte elements fits in
// limit bytes — Remaining() for a payload that carries every element, a
// fixed element cap for the compressed layouts — with the products
// computed overflow-free. It returns the shape as ints, or fails the
// decoder and returns ok=false.
func (d *Dec) Shape(rows, cols uint64, elemSize, limit int) (r, c int, ok bool) {
	if d.err != nil {
		return 0, 0, false
	}
	hi, n := bits.Mul64(rows, cols)
	hi2, size := bits.Mul64(n, uint64(elemSize))
	if rows > math.MaxInt || cols > math.MaxInt || hi != 0 || hi2 != 0 || size > uint64(limit) {
		d.Failf("matrix shape %dx%d of %d-byte elements exceeds %d bytes", rows, cols, elemSize, limit)
		return 0, 0, false
	}
	return int(rows), int(cols), true
}

// F64s decodes len(dst) little-endian float64 elements into dst. On
// failure dst is left untouched.
func (d *Dec) F64s(dst []float64) {
	raw := d.Take(8 * len(dst))
	if raw == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}

// F32s decodes len(dst) little-endian float32 elements into dst, widened
// to float64.
func (d *Dec) F32s(dst []float64) {
	raw := d.Take(4 * len(dst))
	if raw == nil {
		return
	}
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
	}
}
