package coldata

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"repro/internal/bin"
	"repro/internal/tensor"
)

// blockHandle is one decoded (stripe, column) block in its compact form.
// Random access never expands the block: at() reads straight out of the
// retained payload (dense, bitmap, FOR) or binary-searches the expanded
// index list (sparse). buf is the pooled byte buffer backing payload; the
// handle owner (the reader's LRU cache, or a transient decode) releases it.
type blockHandle struct {
	layout  byte
	count   int
	buf     *BlockBuf
	payload []byte // aliases buf for the layouts that keep raw bytes

	constBits uint64
	idx       []int32   // sparse layouts: ascending nonzero row offsets
	vals      []float64 // layoutSparse: the matching nonzero values
	forMin    int64
	forW      int
	forBody   []byte // layoutFOR: the fixed-width delta array
}

// memBytes is the handle's cache weight.
func (h *blockHandle) memBytes() int64 {
	n := int64(64)
	if h.buf != nil {
		n += int64(cap(h.buf.b))
	}
	return n + int64(cap(h.idx))*4 + int64(cap(h.vals))*8
}

// release returns the pooled payload buffer. The handle must not be used
// afterwards.
func (h *blockHandle) release() {
	if h.buf != nil {
		h.buf.Release()
		h.buf = nil
	}
	h.payload, h.forBody, h.idx, h.vals = nil, nil, nil, nil
}

// parseBlock validates one framed block (exactly raw, as read from the
// file) and builds its handle. wantCount is the row count the footer
// implies for this block; anything else is corruption. On success the
// handle takes ownership of buf.
func parseBlock(buf *BlockBuf, wantCount int) (*blockHandle, error) {
	raw := buf.Bytes()
	if len(raw) < 1+1+1+4 {
		return nil, corruptf("block too short (%d bytes)", len(raw))
	}
	body, crcBytes := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, corruptf("block CRC mismatch")
	}
	layout := body[0]
	if layout >= numLayouts {
		return nil, corruptf("unknown block layout %d", layout)
	}
	d := bin.NewDec("block: ", body[1:])
	count64, plen := d.Uvarint(), d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, corrupt(err)
	}
	if int64(count64) != int64(wantCount) {
		return nil, corruptf("block has %d rows, footer implies %d", count64, wantCount)
	}
	if uint64(d.Remaining()) != plen {
		return nil, corruptf("block payload length %d, frame holds %d", plen, d.Remaining())
	}
	h := &blockHandle{layout: layout, count: wantCount, buf: buf, payload: d.Take(int(plen))}
	if err := h.parsePayload(); err != nil {
		h.buf = nil // caller keeps ownership on failure
		return nil, err
	}
	return h, nil
}

func (h *blockHandle) parsePayload() error {
	p := h.payload
	switch h.layout {
	case layoutConst:
		if len(p) != 8 {
			return corruptf("const payload %d bytes", len(p))
		}
		h.constBits = binary.LittleEndian.Uint64(p)
	case layoutBitmap:
		if len(p) != (h.count+7)/8 {
			return corruptf("bitmap payload %d bytes for %d rows", len(p), h.count)
		}
		if h.count%8 != 0 && len(p) > 0 && p[len(p)-1]>>(uint(h.count)%8) != 0 {
			return corruptf("bitmap has bits set past the last row")
		}
	case layoutSparseOnes, layoutSparse:
		d := bin.NewDec("sparse block: ", p)
		nnz64 := d.Uvarint()
		if nnz64 > uint64(h.count) {
			return corruptf("sparse block claims %d nonzeros in %d rows", nnz64, h.count)
		}
		nnz := int(nnz64)
		h.idx = make([]int32, nnz)
		prev := int64(-1)
		for k := 0; k < nnz; k++ {
			delta := d.Uvarint()
			if err := d.Err(); err != nil {
				return corrupt(err)
			}
			var row int64
			if k == 0 {
				row = int64(delta)
			} else {
				row = prev + int64(delta)
				if delta == 0 {
					return corruptf("sparse indices not strictly ascending")
				}
			}
			if row >= int64(h.count) {
				return corruptf("sparse index %d out of %d rows", row, h.count)
			}
			prev = row
			h.idx[k] = int32(row)
		}
		if err := d.Err(); err != nil {
			return corrupt(err)
		}
		rest := d.Take(d.Remaining())
		if h.layout == layoutSparse {
			if len(rest) != 8*nnz {
				return corruptf("sparse values %d bytes for %d nonzeros", len(rest), nnz)
			}
			h.vals = make([]float64, nnz)
			for k := range h.vals {
				bits := binary.LittleEndian.Uint64(rest[8*k:])
				if bits == 0 {
					return corruptf("sparse block stores a zero value")
				}
				h.vals[k] = math.Float64frombits(bits)
			}
		} else if len(rest) != 0 {
			return corruptf("%d trailing bytes in sparse-ones payload", len(rest))
		}
	case layoutFOR:
		d := bin.NewDec("FOR block: ", p)
		h.forMin = d.Varint()
		w := int(d.U8())
		if err := d.Err(); err != nil {
			return corrupt(err)
		}
		if h.forMin < -maxExactInt || h.forMin > maxExactInt {
			return corruptf("FOR minimum %d outside exact-integer range", h.forMin)
		}
		if w != 1 && w != 2 && w != 4 && w != 8 {
			return corruptf("FOR width %d", w)
		}
		rest := d.Take(d.Remaining())
		if len(rest) != w*h.count {
			return corruptf("FOR body %d bytes for %d rows of width %d", len(rest), h.count, w)
		}
		h.forW, h.forBody = w, rest
		for i := 0; i < h.count; i++ {
			if _, ok := h.forValue(i); !ok {
				return corruptf("FOR value out of exact-integer range")
			}
		}
	default: // layoutDense
		if len(p) != 8*h.count {
			return corruptf("dense payload %d bytes for %d rows", len(p), h.count)
		}
	}
	return nil
}

// forValue decodes row i of a FOR block, reporting whether the integer is
// exactly representable as float64.
func (h *blockHandle) forValue(i int) (int64, bool) {
	var d uint64
	switch h.forW {
	case 1:
		d = uint64(h.forBody[i])
	case 2:
		d = uint64(binary.LittleEndian.Uint16(h.forBody[2*i:]))
	case 4:
		d = uint64(binary.LittleEndian.Uint32(h.forBody[4*i:]))
	default:
		d = binary.LittleEndian.Uint64(h.forBody[8*i:])
	}
	if d > uint64(2*maxExactInt) {
		return 0, false
	}
	v := h.forMin + int64(d)
	return v, v >= -maxExactInt && v <= maxExactInt
}

// at returns row i of the block without expanding it.
func (h *blockHandle) at(i int) float64 {
	switch h.layout {
	case layoutConst:
		return math.Float64frombits(h.constBits)
	case layoutBitmap:
		if h.payload[i/8]&(1<<uint(i%8)) != 0 {
			return 1
		}
		return 0
	case layoutSparseOnes, layoutSparse:
		k := searchInt32(h.idx, int32(i))
		if k < 0 {
			return 0
		}
		if h.layout == layoutSparseOnes {
			return 1
		}
		return h.vals[k]
	case layoutFOR:
		v, _ := h.forValue(i)
		return float64(v)
	default:
		return math.Float64frombits(binary.LittleEndian.Uint64(h.payload[8*i:]))
	}
}

// fillColumn writes all count rows of the block into column col of dst,
// starting at dst row dstRow. Every cell in the range is written (zeros
// included), so dst may be uninitialized pooled memory.
func (h *blockHandle) fillColumn(dst *tensor.Dense, dstRow, col int) {
	switch h.layout {
	case layoutSparseOnes, layoutSparse:
		for i := 0; i < h.count; i++ {
			dst.Set(dstRow+i, col, 0)
		}
		for k, row := range h.idx {
			v := 1.0
			if h.layout == layoutSparse {
				v = h.vals[k]
			}
			dst.Set(dstRow+int(row), col, v)
		}
	default:
		for i := 0; i < h.count; i++ {
			dst.Set(dstRow+i, col, h.at(i))
		}
	}
}

// searchInt32 binary-searches a sorted slice, returning the position of
// want or -1.
func searchInt32(xs []int32, want int32) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(xs) && xs[lo] == want {
		return lo
	}
	return -1
}
