package coldata

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"repro/internal/bin"
	"repro/internal/tensor"
)

// Writer streams a row-major float64 matrix into a gtvcol file. Rows are
// buffered into stripes of blockRows; each full stripe is sliced into
// per-column blocks, encoded and flushed, so writing a table never holds
// more than one stripe in memory. Close flushes the final partial stripe,
// the metadata blobs and the footer/trailer.
type Writer struct {
	f    *bufio.Writer
	file *os.File
	path string

	cols      int
	blockRows int
	rows      int
	pending   int       // rows buffered in stripeBuf
	stripeBuf []float64 // pending*cols, row-major

	colScratch []float64
	blockBuf   []byte
	blockLens  []uint32 // stripe-major, cols per stripe
	metaNames  []string
	metaBlobs  map[string][]byte
	offset     int64
	closed     bool
}

// Create opens path for writing (truncating any existing file) and writes
// the gtvcol header. blockRows <= 0 selects DefaultBlockRows.
func Create(path string, cols, blockRows int) (*Writer, error) {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	if cols <= 0 || cols > maxCols {
		return nil, fmt.Errorf("coldata: invalid column count %d", cols)
	}
	if blockRows > maxBlockRows {
		return nil, fmt.Errorf("coldata: block rows %d over limit %d", blockRows, maxBlockRows)
	}
	file, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		f: bufio.NewWriterSize(file, 1<<20), file: file, path: path,
		cols: cols, blockRows: blockRows,
		stripeBuf:  make([]float64, 0, blockRows*cols),
		colScratch: make([]float64, blockRows),
		metaBlobs:  map[string][]byte{},
	}
	var hdr [headerSize]byte
	copy(hdr[:], headMagic[:])
	hdr[7] = Version
	if err := w.write(hdr[:]); err != nil {
		w.abort()
		return nil, err
	}
	return w, nil
}

func (w *Writer) write(b []byte) error {
	n, err := w.f.Write(b)
	w.offset += int64(n)
	return err
}

func (w *Writer) abort() {
	//lint:ignore errdrop the write error being handled already describes the failure
	_ = w.file.Close()
	w.closed = true
}

// AppendRow buffers one row (len must equal the writer's column count).
func (w *Writer) AppendRow(vals []float64) error {
	if len(vals) != w.cols {
		return fmt.Errorf("coldata: row has %d values, file has %d columns", len(vals), w.cols)
	}
	w.stripeBuf = append(w.stripeBuf, vals...)
	w.pending++
	w.rows++
	if w.pending == w.blockRows {
		return w.flushStripe()
	}
	return nil
}

// AppendRows buffers every row of m (m's column count must match).
func (w *Writer) AppendRows(m *tensor.Dense) error {
	if m.Cols() != w.cols {
		return fmt.Errorf("coldata: matrix has %d columns, file has %d", m.Cols(), w.cols)
	}
	for i := 0; i < m.Rows(); i++ {
		if err := w.AppendRow(m.RawRow(i)); err != nil {
			return err
		}
	}
	return nil
}

// SetMeta attaches a named metadata blob, written ahead of the footer on
// Close. Setting a name again replaces its blob.
func (w *Writer) SetMeta(name string, blob []byte) error {
	if name == "" || len(name) > maxMetaName {
		return fmt.Errorf("coldata: invalid meta name %q", name)
	}
	if len(blob) > maxMetaLen {
		return fmt.Errorf("coldata: meta %q blob too large (%d bytes)", name, len(blob))
	}
	if _, dup := w.metaBlobs[name]; !dup {
		w.metaNames = append(w.metaNames, name)
	}
	w.metaBlobs[name] = append([]byte(nil), blob...)
	return nil
}

// flushStripe encodes the buffered rows as one stripe of per-column
// blocks.
func (w *Writer) flushStripe() error {
	rows := w.pending
	if rows == 0 {
		return nil
	}
	for j := 0; j < w.cols; j++ {
		col := w.colScratch[:rows]
		for i := 0; i < rows; i++ {
			col[i] = w.stripeBuf[i*w.cols+j]
		}
		w.blockBuf = appendBlock(w.blockBuf[:0], col)
		if err := w.write(w.blockBuf); err != nil {
			return err
		}
		w.blockLens = append(w.blockLens, uint32(len(w.blockBuf)))
	}
	w.stripeBuf = w.stripeBuf[:0]
	w.pending = 0
	return nil
}

// Close flushes the final stripe, writes metadata, footer and trailer,
// and closes the file. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("coldata: writer already closed")
	}
	w.closed = true
	err := w.finish()
	if cerr := w.file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("coldata: writing %s: %w", w.path, err)
	}
	return nil
}

func (w *Writer) finish() error {
	if int64(w.rows) > maxRows {
		return fmt.Errorf("row count %d over limit", w.rows)
	}
	if err := w.flushStripe(); err != nil {
		return err
	}
	// Deterministic meta order regardless of SetMeta call order.
	sort.Strings(w.metaNames)
	for _, name := range w.metaNames {
		if err := w.write(w.metaBlobs[name]); err != nil {
			return err
		}
	}
	footerOff := w.offset
	stripes := len(w.blockLens) / w.cols
	footer := bin.Enc{Buf: make([]byte, 0, 64+len(w.blockLens)*3)}
	footer.Uvarint(uint64(w.rows))
	footer.Uvarint(uint64(w.cols))
	footer.Uvarint(uint64(w.blockRows))
	footer.Uvarint(uint64(stripes))
	for _, l := range w.blockLens {
		footer.Uvarint(uint64(l))
	}
	footer.Uvarint(uint64(len(w.metaNames)))
	for _, name := range w.metaNames {
		blob := w.metaBlobs[name]
		footer.Str(name)
		footer.Uvarint(uint64(len(blob)))
		// The blob's CRC lives in the footer (itself CRC'd), so every byte
		// of the file is integrity-checked.
		footer.Uvarint(uint64(crc32.ChecksumIEEE(blob)))
	}
	if err := w.write(footer.Buf); err != nil {
		return err
	}
	var tr bin.Enc
	tr.U64(uint64(footerOff))
	tr.U32(uint32(len(footer.Buf)))
	tr.U32(crc32.ChecksumIEEE(footer.Buf))
	tr.Buf = append(tr.Buf, tailMagic[:]...)
	if err := w.write(tr.Buf); err != nil {
		return err
	}
	return w.f.Flush()
}
