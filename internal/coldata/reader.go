package coldata

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"repro/internal/bin"
	"repro/internal/tensor"
)

// Reader serves random-access row gathers and sequential stripe scans
// over a gtvcol file. Decoded blocks are kept compact in a byte-bounded
// LRU cache, so resident memory is bounded by the cache budget (plus one
// stripe of pooled scan buffers), never by the dataset.
//
// Concurrency: Close aside, a Reader supports one random-access consumer
// at a time; ScanStripes overlaps its internal prefetch decode with the
// caller's compute but presents stripes strictly in order.
type Reader struct {
	src  io.ReaderAt
	file *os.File // set by Open; closed by Close

	rows, cols int
	blockRows  int
	stripes    int
	blockOff   []int64  // stripe-major absolute offsets, stripes*cols
	blockLen   []uint32 // same order
	metas      map[string][]byte

	cache *blockCache
}

// Open maps the gtvcol file at path. cacheBytes bounds the decoded-block
// cache (0 = DefaultCacheBytes). The footer, trailer and metadata are
// validated eagerly; block payloads are validated (CRC included) on first
// decode.
func Open(path string, cacheBytes int64) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		//lint:ignore errdrop the stat error is the one worth reporting
		_ = f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size(), cacheBytes)
	if err != nil {
		//lint:ignore errdrop the parse error is the one worth reporting
		_ = f.Close()
		return nil, fmt.Errorf("coldata: opening %s: %w", path, err)
	}
	r.file = f
	return r, nil
}

// NewReader parses a gtvcol image served by src (size bytes long). It is
// the io.ReaderAt-level entry point Open wraps; fuzzing drives it over
// in-memory images.
func NewReader(src io.ReaderAt, size int64, cacheBytes int64) (*Reader, error) {
	r := &Reader{src: src, cache: newBlockCache(cacheBytes)}
	if err := r.parseContainer(size); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reader) parseContainer(size int64) error {
	if size < headerSize+trailerSize {
		return corruptf("file too short (%d bytes)", size)
	}
	var hdr [headerSize]byte
	if _, err := r.src.ReadAt(hdr[:], 0); err != nil {
		return err
	}
	if [7]byte(hdr[:7]) != headMagic {
		return corruptf("bad magic")
	}
	if hdr[7] != Version {
		return corruptf("unsupported version %d", hdr[7])
	}
	var tr [trailerSize]byte
	if _, err := r.src.ReadAt(tr[:], size-trailerSize); err != nil {
		return err
	}
	if [8]byte(tr[16:]) != tailMagic {
		return corruptf("bad trailer magic")
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	footerLen := int64(binary.LittleEndian.Uint32(tr[8:12]))
	footerCRC := binary.LittleEndian.Uint32(tr[12:16])
	if footerOff < headerSize || footerLen <= 0 || footerLen > maxFooterLen ||
		footerOff+footerLen+trailerSize != size {
		return corruptf("footer bounds off=%d len=%d size=%d", footerOff, footerLen, size)
	}
	footer := make([]byte, footerLen)
	if _, err := r.src.ReadAt(footer, footerOff); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(footer) != footerCRC {
		return corruptf("footer CRC mismatch")
	}
	if err := r.parseFooter(footer, footerOff); err != nil {
		return err
	}
	return nil
}

func (r *Reader) parseFooter(footer []byte, footerOff int64) error {
	d := bin.NewDec("footer: ", footer)
	rows, cols, blockRows, stripes := d.Uvarint(), d.Uvarint(), d.Uvarint(), d.Uvarint()
	if err := d.Err(); err != nil {
		return corrupt(err)
	}
	if int64(rows) > maxRows || cols == 0 || cols > maxCols ||
		blockRows == 0 || blockRows > maxBlockRows {
		return corruptf("dimensions rows=%d cols=%d blockRows=%d", rows, cols, blockRows)
	}
	wantStripes := (rows + blockRows - 1) / blockRows
	if stripes != wantStripes {
		return corruptf("%d stripes for %d rows of %d", stripes, rows, blockRows)
	}
	r.rows, r.cols, r.blockRows, r.stripes = int(rows), int(cols), int(blockRows), int(stripes)

	nBlocks := int(stripes) * r.cols
	if d.Remaining() < nBlocks { // each length is >= 1 byte
		return corruptf("footer too short for %d block lengths", nBlocks)
	}
	r.blockOff = make([]int64, nBlocks)
	r.blockLen = make([]uint32, nBlocks)
	off := int64(headerSize)
	for b := 0; b < nBlocks; b++ {
		stripeRows := r.stripeRows(b / r.cols)
		l := d.Uvarint()
		if err := d.Err(); err != nil {
			return corrupt(err)
		}
		if l < 7 || l > uint64(maxBlockLen(stripeRows)) {
			return corruptf("block %d length %d out of bounds", b, l)
		}
		r.blockOff[b] = off
		r.blockLen[b] = uint32(l)
		off += int64(l)
	}

	metaCount := d.Uvarint()
	if err := d.Err(); err != nil {
		return corrupt(err)
	}
	if metaCount > maxMetaCount {
		return corruptf("%d metadata entries", metaCount)
	}
	r.metas = make(map[string][]byte, metaCount)
	type metaLoc struct {
		name string
		off  int64
		len  int64
		crc  uint32
	}
	locs := make([]metaLoc, 0, metaCount)
	for i := uint64(0); i < metaCount; i++ {
		nameLen := d.Uvarint()
		if d.Err() == nil && (nameLen == 0 || nameLen > maxMetaName) {
			return corruptf("meta name length %d", nameLen)
		}
		name := string(d.Take(int(nameLen)))
		blobLen, blobCRC := d.Uvarint(), d.Uvarint()
		if err := d.Err(); err != nil {
			return corrupt(err)
		}
		if blobLen > maxMetaLen {
			return corruptf("meta %q blob length %d", name, blobLen)
		}
		if blobCRC > 0xffffffff {
			return corruptf("meta %q CRC out of range", name)
		}
		if _, dup := r.metas[name]; dup {
			return corruptf("duplicate meta %q", name)
		}
		r.metas[name] = nil
		locs = append(locs, metaLoc{name: name, off: off, len: int64(blobLen), crc: uint32(blobCRC)})
		off += int64(blobLen)
	}
	if d.Remaining() != 0 {
		return corruptf("%d trailing bytes in footer", d.Remaining())
	}
	// The accounting must land exactly on the footer: any gap would be
	// bytes the index never describes (interleaved or trailing garbage).
	if off != footerOff {
		return corruptf("content ends at %d, footer starts at %d", off, footerOff)
	}
	for _, loc := range locs {
		blob := make([]byte, loc.len)
		if _, err := r.src.ReadAt(blob, loc.off); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(blob) != loc.crc {
			return corruptf("meta %q CRC mismatch", loc.name)
		}
		r.metas[loc.name] = blob
	}
	return nil
}

// Rows returns the row count.
func (r *Reader) Rows() int { return r.rows }

// Cols returns the column count.
func (r *Reader) Cols() int { return r.cols }

// Meta returns the named metadata blob, or nil if absent.
func (r *Reader) Meta(name string) []byte { return r.metas[name] }

// stripeRows returns the row count of stripe s (the last may be short).
func (r *Reader) stripeRows(s int) int {
	if s == r.stripes-1 {
		if tail := r.rows - s*r.blockRows; tail > 0 {
			return tail
		}
	}
	return r.blockRows
}

// Close releases the cache and closes the underlying file (when the
// Reader came from Open).
func (r *Reader) Close() error {
	r.cache.drop()
	if r.file != nil {
		f := r.file
		r.file = nil
		return f.Close()
	}
	return nil
}

// readBlock reads and parses block (s, j), bypassing the cache. The
// caller owns the returned handle and must release it.
func (r *Reader) readBlock(s, j int) (*blockHandle, error) {
	b := s*r.cols + j
	buf := AcquireBlockBuf(int(r.blockLen[b]))
	if _, err := r.src.ReadAt(buf.Bytes(), r.blockOff[b]); err != nil {
		buf.Release()
		return nil, err
	}
	h, err := parseBlock(buf, r.stripeRows(s))
	if err != nil {
		buf.Release()
		return nil, fmt.Errorf("stripe %d column %d: %w", s, j, err)
	}
	return h, nil
}

// cachedBlock returns block (s, j) through the LRU. The handle is owned
// by the cache; it stays valid until the caller's next cache operation.
func (r *Reader) cachedBlock(s, j int) (*blockHandle, error) {
	k := cacheKey{stripe: int32(s), col: int32(j)}
	if h := r.cache.get(k); h != nil {
		return h, nil
	}
	h, err := r.readBlock(s, j)
	if err != nil {
		return nil, err
	}
	r.cache.add(k, h)
	return h, nil
}

// GatherRowsInto fills dst (len(rows) x Cols) with the requested rows, in
// order. Work is grouped stripe-by-stripe and column-at-a-time so each
// needed block is looked up once per gather, and blocks are read in their
// compact form — a random batch touches kilobytes per block, not the dense
// expansion.
func (r *Reader) GatherRowsInto(rows []int32, dst *tensor.Dense) error {
	if dst.Rows() != len(rows) || dst.Cols() != r.cols {
		return fmt.Errorf("coldata: gather destination %dx%d for %d rows x %d cols",
			dst.Rows(), dst.Cols(), len(rows), r.cols)
	}
	// order visits the batch grouped by stripe (stable within a stripe).
	order := make([]int32, len(rows))
	for i := range order {
		row := rows[i]
		if row < 0 || int(row) >= r.rows {
			return fmt.Errorf("coldata: row %d out of range %d", row, r.rows)
		}
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return rows[order[a]]/int32(r.blockRows) < rows[order[b]]/int32(r.blockRows)
	})
	for lo := 0; lo < len(order); {
		s := int(rows[order[lo]]) / r.blockRows
		hi := lo
		for hi < len(order) && int(rows[order[hi]])/r.blockRows == s {
			hi++
		}
		base := s * r.blockRows
		for j := 0; j < r.cols; j++ {
			h, err := r.cachedBlock(s, j)
			if err != nil {
				return err
			}
			for _, k := range order[lo:hi] {
				dst.Set(int(k), j, h.at(int(rows[k])-base))
			}
		}
		lo = hi
	}
	return nil
}

// Column returns a copy of column j.
func (r *Reader) Column(j int) ([]float64, error) {
	if j < 0 || j >= r.cols {
		return nil, fmt.Errorf("coldata: column %d out of range %d", j, r.cols)
	}
	out := make([]float64, r.rows)
	for s := 0; s < r.stripes; s++ {
		h, err := r.readBlock(s, j)
		if err != nil {
			return nil, err
		}
		base := s * r.blockRows
		for i := 0; i < h.count; i++ {
			out[base+i] = h.at(i)
		}
		h.release()
	}
	return out, nil
}

// scanResult carries one decoded stripe from the prefetch goroutine.
type scanResult struct {
	m   *tensor.Dense
	err error
}

// decodeStripe expands stripe s into a pooled rows x cols matrix. The
// caller owns (and must Release) the matrix. Cache is bypassed: scans are
// sequential, and caching them would evict the random-access working set.
func (r *Reader) decodeStripe(s int) (*tensor.Dense, error) {
	rows := r.stripeRows(s)
	m := tensor.NewPooledUninit(rows, r.cols)
	for j := 0; j < r.cols; j++ {
		h, err := r.readBlock(s, j)
		if err != nil {
			m.Release()
			return nil, err
		}
		h.fillColumn(m, 0, j)
		h.release()
	}
	return m, nil
}

// ScanStripes streams every stripe through fn in row order as a dense
// rows x cols matrix (valid only during the callback). Decode is double
// buffered: while fn processes stripe s, a prefetch goroutine decodes
// stripe s+1, so I/O and decode overlap the caller's compute.
func (r *Reader) ScanStripes(fn func(firstRow int, block *tensor.Dense) error) error {
	if r.rows == 0 {
		return nil
	}
	decodeAsync := func(s int) chan scanResult {
		ch := make(chan scanResult, 1) // buffered: the send cannot block, so the goroutine always exits
		go func() {
			m, err := r.decodeStripe(s)
			ch <- scanResult{m: m, err: err}
		}()
		return ch
	}
	pending := decodeAsync(0)
	defer func() {
		if pending != nil {
			// Early exit with a prefetch in flight: wait for it and return
			// its buffer to the pool.
			res := <-pending
			res.m.Release()
		}
	}()
	for s := 0; s < r.stripes; s++ {
		var next chan scanResult
		if s+1 < r.stripes {
			next = decodeAsync(s + 1)
		}
		res := <-pending
		pending = next
		if res.err != nil {
			return res.err
		}
		err := fn(s*r.blockRows, res.m)
		res.m.Release()
		if err != nil {
			return err
		}
	}
	return nil
}
