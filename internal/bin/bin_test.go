package bin

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// primCase pins one primitive at one value: the exact bytes Enc writes
// and the value Dec reads back from them.
type primCase struct {
	name string
	enc  func(*Enc)
	dec  func(*Dec) any
	val  any // what dec returns for the full bytes
	zero any // what dec returns once the decoder has failed
	want []byte
}

func u8Case(v byte, want ...byte) primCase {
	return primCase{"U8", func(e *Enc) { e.U8(v) }, func(d *Dec) any { return d.U8() }, v, byte(0), want}
}

func u32Case(v uint32, want ...byte) primCase {
	return primCase{"U32", func(e *Enc) { e.U32(v) }, func(d *Dec) any { return d.U32() }, v, uint32(0), want}
}

func u64Case(v uint64, want ...byte) primCase {
	return primCase{"U64", func(e *Enc) { e.U64(v) }, func(d *Dec) any { return d.U64() }, v, uint64(0), want}
}

func i64Case(v int64, want ...byte) primCase {
	return primCase{"I64", func(e *Enc) { e.I64(v) }, func(d *Dec) any { return d.I64() }, v, int64(0), want}
}

// Floats compare as bit patterns so -0.0 and +0.0 stay distinct.
func f64Case(v float64, want ...byte) primCase {
	return primCase{"F64", func(e *Enc) { e.F64(v) }, func(d *Dec) any { return math.Float64bits(d.F64()) }, math.Float64bits(v), uint64(0), want}
}

func f32Case(v float64, want ...byte) primCase {
	return primCase{"F32", func(e *Enc) { e.F32(v) }, func(d *Dec) any { return math.Float64bits(d.F32()) }, math.Float64bits(v), uint64(0), want}
}

func boolCase(v bool, want ...byte) primCase {
	return primCase{"Bool", func(e *Enc) { e.Bool(v) }, func(d *Dec) any { return d.Bool() }, v, false, want}
}

func uvarintCase(v uint64, want ...byte) primCase {
	return primCase{"Uvarint", func(e *Enc) { e.Uvarint(v) }, func(d *Dec) any { return d.Uvarint() }, v, uint64(0), want}
}

func varintCase(v int64, want ...byte) primCase {
	return primCase{"Varint", func(e *Enc) { e.Varint(v) }, func(d *Dec) any { return d.Varint() }, v, int64(0), want}
}

func strCase(v string, want ...byte) primCase {
	return primCase{"Str", func(e *Enc) { e.Str(v) }, func(d *Dec) any { return d.Str() }, v, "", want}
}

// primCases covers every primitive at 0, 127, 128, 2^32-1, 2^63, -1 and
// MinInt64 wherever the type can hold the value.
func primCases() []primCase {
	return []primCase{
		u8Case(0, 0x00),
		u8Case(127, 0x7f),
		u8Case(128, 0x80),
		u8Case(255, 0xff),

		u32Case(0, 0, 0, 0, 0),
		u32Case(127, 0x7f, 0, 0, 0),
		u32Case(128, 0x80, 0, 0, 0),
		u32Case(math.MaxUint32, 0xff, 0xff, 0xff, 0xff),

		u64Case(0, 0, 0, 0, 0, 0, 0, 0, 0),
		u64Case(127, 0x7f, 0, 0, 0, 0, 0, 0, 0),
		u64Case(128, 0x80, 0, 0, 0, 0, 0, 0, 0),
		u64Case(math.MaxUint32, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0),
		u64Case(1<<63, 0, 0, 0, 0, 0, 0, 0, 0x80),

		i64Case(0, 0, 0, 0, 0, 0, 0, 0, 0),
		i64Case(127, 0x7f, 0, 0, 0, 0, 0, 0, 0),
		i64Case(128, 0x80, 0, 0, 0, 0, 0, 0, 0),
		i64Case(math.MaxUint32, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0),
		i64Case(-1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
		i64Case(math.MinInt64, 0, 0, 0, 0, 0, 0, 0, 0x80),

		f64Case(0, 0, 0, 0, 0, 0, 0, 0, 0),
		f64Case(math.Copysign(0, -1), 0, 0, 0, 0, 0, 0, 0, 0x80),
		f64Case(127, 0, 0, 0, 0, 0, 0xc0, 0x5f, 0x40),
		f64Case(128, 0, 0, 0, 0, 0, 0, 0x60, 0x40),
		f64Case(math.MaxUint32, 0, 0, 0xe0, 0xff, 0xff, 0xff, 0xef, 0x41),
		f64Case(1<<63, 0, 0, 0, 0, 0, 0, 0xe0, 0x43),
		f64Case(-1, 0, 0, 0, 0, 0, 0, 0xf0, 0xbf),
		f64Case(math.MinInt64, 0, 0, 0, 0, 0, 0, 0xe0, 0xc3),

		f32Case(0, 0, 0, 0, 0),
		f32Case(127, 0, 0, 0xfe, 0x42),
		f32Case(128, 0, 0, 0, 0x43),
		f32Case(1<<63, 0, 0, 0, 0x5f),
		f32Case(-1, 0, 0, 0x80, 0xbf),
		f32Case(math.MinInt64, 0, 0, 0, 0xdf),

		boolCase(false, 0),
		boolCase(true, 1),

		uvarintCase(0, 0x00),
		uvarintCase(127, 0x7f),
		uvarintCase(128, 0x80, 0x01),
		uvarintCase(math.MaxUint32, 0xff, 0xff, 0xff, 0xff, 0x0f),
		uvarintCase(1<<63, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		uvarintCase(math.MaxUint64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),

		varintCase(0, 0x00),
		varintCase(127, 0xfe, 0x01),
		varintCase(128, 0x80, 0x02),
		varintCase(math.MaxUint32, 0xfe, 0xff, 0xff, 0xff, 0x1f),
		varintCase(-1, 0x01),
		varintCase(math.MinInt64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		varintCase(math.MaxInt64, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),

		strCase("", 0x00),
		strCase("gtv", 0x03, 'g', 't', 'v'),
	}
}

func TestEncodeBytes(t *testing.T) {
	for _, c := range primCases() {
		var e Enc
		c.enc(&e)
		if !bytes.Equal(e.Buf, c.want) {
			t.Errorf("%s(%v) = % x, want % x", c.name, c.val, e.Buf, c.want)
		}
	}
}

func TestDecodeBytes(t *testing.T) {
	for _, c := range primCases() {
		d := NewDec("test: ", c.want)
		if got := c.dec(&d); got != c.val {
			t.Errorf("%s from % x = %v, want %v", c.name, c.want, got, c.val)
		}
		if err := d.Finish(); err != nil {
			t.Errorf("%s from % x: %v", c.name, c.want, err)
		}
	}
}

// TestDecodeTruncation cuts every case's bytes at every point short of
// the end: the read must fail with the prefixed sticky error and return
// the zero value, and a later read must too even when bytes remain.
func TestDecodeTruncation(t *testing.T) {
	for _, c := range primCases() {
		for cut := 0; cut < len(c.want); cut++ {
			d := NewDec("test: ", c.want[:cut])
			if got := c.dec(&d); got != c.zero {
				t.Errorf("%s from % x = %v, want zero value", c.name, c.want[:cut], got)
			}
			err := d.Err()
			if err == nil || !strings.HasPrefix(err.Error(), "test: ") {
				t.Fatalf("%s from % x: err %v, want a prefixed error", c.name, c.want[:cut], err)
			}
			if got := c.dec(&d); got != c.zero {
				t.Errorf("%s after failure = %v, want zero value", c.name, got)
			}
			if d.Finish() != err {
				t.Errorf("%s: Finish did not report the first error", c.name)
			}
		}
	}
	// A failed read does not consume its bytes, yet later reads stay failed.
	d := NewDec("", []byte{0x80, 0x07})
	d.U32()
	if d.U8() != 0 || d.Remaining() != 2 {
		t.Fatal("a read after a failure returned data")
	}
}

func TestFinishFlagsTrailingBytes(t *testing.T) {
	for _, c := range primCases() {
		d := NewDec("test: ", append(append([]byte(nil), c.want...), 0))
		c.dec(&d)
		if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
			t.Errorf("%s: Finish with a trailing byte = %v", c.name, err)
		}
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, math.MaxUint32, 1 << 63, math.MaxUint64} {
		var e Enc
		e.Uvarint(v)
		if got := UvarintLen(v); got != len(e.Buf) {
			t.Errorf("UvarintLen(%d) = %d, encoded %d bytes", v, got, len(e.Buf))
		}
		s := int64(v)
		e.Buf = e.Buf[:0]
		e.Varint(s)
		if got := VarintLen(s); got != len(e.Buf) {
			t.Errorf("VarintLen(%d) = %d, encoded %d bytes", s, got, len(e.Buf))
		}
	}
}

func TestCountBoundsByRemaining(t *testing.T) {
	// A count of 3 with 24 bytes behind it fits 8-byte elements; 4 does not.
	var e Enc
	e.Uvarint(3)
	e.F64s([]float64{1, 2, 3})
	d := NewDec("", e.Buf)
	if n := d.Count(8); n != 3 || d.Err() != nil {
		t.Fatalf("Count(8) = %d, %v", n, d.Err())
	}
	e.Buf[0] = 4
	d = NewDec("", e.Buf)
	if n := d.Count(8); n != 0 || d.Err() == nil {
		t.Fatalf("Count(8) of 4 over 24 bytes = %d, %v", n, d.Err())
	}
	// Counts beyond every int: rejected, not converted.
	d = NewDec("", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	if n := d.Count(1); n != 0 || d.Err() == nil {
		t.Fatalf("Count of 2^64-1 = %d, %v", n, d.Err())
	}
}

func TestShapeRejectsOverflow(t *testing.T) {
	cases := []struct {
		rows, cols uint64
		elem, lim  int
		ok         bool
	}{
		{2, 3, 8, 48, true},
		{2, 3, 8, 47, false},
		{0, 1 << 62, 8, 0, true},
		{1, 1 << 61, 8, 1 << 30, false},       // 2^64 bytes wraps to 0
		{1, 1 << 62, 4, 1 << 30, false},       // likewise
		{1, 1<<61 + 1, 8, 1 << 30, false},     // wraps to 8
		{1 << 32, 1 << 32, 1, 1 << 30, false}, // rows*cols wraps to 0
		{1 << 63, 0, 8, 1 << 30, false},       // rows beyond int
	}
	for _, c := range cases {
		d := NewDec("", nil)
		r, k, ok := d.Shape(c.rows, c.cols, c.elem, c.lim)
		if ok != c.ok || (d.Err() == nil) != c.ok {
			t.Errorf("Shape(%d, %d, %d, %d) ok=%v err=%v, want ok=%v", c.rows, c.cols, c.elem, c.lim, ok, d.Err(), c.ok)
		}
		if ok && (uint64(r) != c.rows || uint64(k) != c.cols) {
			t.Errorf("Shape returned %dx%d for %dx%d", r, k, c.rows, c.cols)
		}
	}
}

func TestElementRuns(t *testing.T) {
	in := []float64{1, -2.5, math.Inf(1), math.Copysign(0, -1), 1e300}
	var e Enc
	e.F64s(in)
	e.F32s(in[:2])
	d := NewDec("", e.Buf)
	out := make([]float64, len(in))
	d.F64s(out)
	out32 := make([]float64, 2)
	d.F32s(out32)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Errorf("F64s element %d = %v, want %v", i, out[i], in[i])
		}
	}
	if math.Float64bits(out32[0]) != math.Float64bits(1) || math.Float64bits(out32[1]) != math.Float64bits(-2.5) {
		t.Errorf("F32s = %v", out32)
	}
	// One byte short: the run fails and leaves dst untouched.
	d = NewDec("", e.Buf[:8*len(in)-1])
	dst := []float64{7, 7, 7, 7, 7}
	d.F64s(dst)
	if d.Err() == nil || math.Float64bits(dst[0]) != math.Float64bits(7) {
		t.Errorf("truncated F64s: err %v, dst %v", d.Err(), dst)
	}
}

// Decoder programs for FuzzDec: each op byte selects one read and the
// matching write, so a decoded value list can be re-encoded.
const (
	opU8 = iota
	opU32
	opU64
	opI64
	opF64
	opF32
	opBool
	opUvarint
	opVarint
	opStr
	opTake
	opF64s
	opF32s
	opMatrix
	numOps
)

// value is one decoded field.
type value struct {
	op    byte
	u     uint64
	raw   []byte
	elems []float64
	rows  uint64
	cols  uint64
}

// decodeProgram runs ops over data until the first failure, returning
// the values read before it. t (when non-nil) checks that no length the
// decoder hands out exceeds the bytes that were left.
func decodeProgram(t *testing.T, ops, data []byte) ([]value, *Dec) {
	d := NewDec("fuzz: ", data)
	var vals []value
	for _, op := range ops {
		op %= numOps
		v := value{op: op}
		left := d.Remaining()
		switch op {
		case opU8:
			v.u = uint64(d.U8())
		case opU32:
			v.u = uint64(d.U32())
		case opU64:
			v.u = d.U64()
		case opI64:
			v.u = uint64(d.I64())
		case opF64:
			v.u = math.Float64bits(d.F64())
		case opF32:
			v.u = math.Float64bits(d.F32())
		case opBool:
			if d.Bool() {
				v.u = 1
			}
		case opUvarint:
			v.u = d.Uvarint()
		case opVarint:
			v.u = uint64(d.Varint())
		case opStr:
			v.raw = []byte(d.Str())
		case opTake:
			v.raw = d.Take(d.Count(1))
		case opF64s, opF32s:
			size := 8
			if op == opF32s {
				size = 4
			}
			n := d.Count(size)
			if t != nil && n*size > left {
				t.Fatalf("Count(%d) = %d with %d bytes left", size, n, left)
			}
			v.elems = make([]float64, n)
			if op == opF64s {
				d.F64s(v.elems)
			} else {
				d.F32s(v.elems)
			}
		case opMatrix:
			v.rows, v.cols = d.Uvarint(), d.Uvarint()
			r, c, ok := d.Shape(v.rows, v.cols, 8, d.Remaining())
			if ok {
				if t != nil && r*c*8 > left {
					t.Fatalf("Shape %dx%d with %d bytes left", r, c, left)
				}
				v.elems = make([]float64, r*c)
				d.F64s(v.elems)
			}
		}
		if d.Err() != nil {
			break
		}
		vals = append(vals, v)
	}
	return vals, &d
}

func encodeProgram(vals []value) []byte {
	var e Enc
	for _, v := range vals {
		switch v.op {
		case opU8:
			e.U8(byte(v.u))
		case opU32:
			e.U32(uint32(v.u))
		case opU64:
			e.U64(v.u)
		case opI64:
			e.I64(int64(v.u))
		case opF64:
			e.F64(math.Float64frombits(v.u))
		case opF32:
			e.F32(math.Float64frombits(v.u))
		case opBool:
			e.Bool(v.u != 0)
		case opUvarint:
			e.Uvarint(v.u)
		case opVarint:
			e.Varint(int64(v.u))
		case opStr:
			e.Str(string(v.raw))
		case opTake:
			e.Uvarint(uint64(len(v.raw)))
			e.Buf = append(e.Buf, v.raw...)
		case opF64s:
			e.Uvarint(uint64(len(v.elems)))
			e.F64s(v.elems)
		case opF32s:
			e.Uvarint(uint64(len(v.elems)))
			e.F32s(v.elems)
		case opMatrix:
			e.Uvarint(v.rows)
			e.Uvarint(v.cols)
			e.F64s(v.elems)
		}
	}
	return e.Buf
}

// FuzzDec runs an op program of Dec reads over arbitrary bytes. Nothing
// may panic and no count or shape may exceed what the input holds. The
// values read are then marshalled twice (Enc→Dec→Enc): the second
// encoding must equal the first byte for byte, and decoding the first
// must consume it exactly.
func FuzzDec(f *testing.F) {
	var seed Enc
	var seedOps []byte
	for _, c := range primCases() {
		c.enc(&seed)
		seedOps = append(seedOps, map[string]byte{
			"U8": opU8, "U32": opU32, "U64": opU64, "I64": opI64, "F64": opF64, "F32": opF32,
			"Bool": opBool, "Uvarint": opUvarint, "Varint": opVarint, "Str": opStr,
		}[c.name])
	}
	f.Add(seedOps, seed.Buf)
	f.Add([]byte{opMatrix, opF64s}, []byte{2, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{opMatrix}, []byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{opTake, opF32s}, []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		vals, _ := decodeProgram(t, ops, data)
		first := encodeProgram(vals)
		again, d2 := decodeProgram(t, ops[:len(vals)], first)
		if err := d2.Finish(); err != nil || len(again) != len(vals) {
			t.Fatalf("re-decoding %d values: %d decoded, %v", len(vals), len(again), err)
		}
		if second := encodeProgram(again); !bytes.Equal(first, second) {
			t.Fatalf("marshal twice differs:\n% x\n% x", first, second)
		}
	})
}
