package encoding

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/coldata"
	"repro/internal/gmm"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Storage locates a party's gtvcol files inside a data directory. Two
// files exist per party: <Name>.raw.gtvcol holds the raw columns (plus
// specs and a source tag), <Name>.enc.gtvcol holds the encoded training
// matrix (plus the fitted transformer and an encode fingerprint). A zero
// Dir disables the store and keeps everything in memory.
type Storage struct {
	// Dir is the data directory; empty disables on-disk backing.
	Dir string
	// Name is the per-party file stem, e.g. "central" or "client-0".
	Name string
	// CacheBytes bounds each reader's decoded-block cache
	// (0 = coldata.DefaultCacheBytes).
	CacheBytes int64
	// BlockRows overrides the stripe height (0 = coldata.DefaultBlockRows).
	BlockRows int
}

// Enabled reports whether the storage points at a data directory.
func (st Storage) Enabled() bool { return st.Dir != "" }

// RawPath returns the raw-table file path.
func (st Storage) RawPath() string { return filepath.Join(st.Dir, st.Name+".raw.gtvcol") }

// EncPath returns the encoded-matrix file path.
func (st Storage) EncPath() string { return filepath.Join(st.Dir, st.Name+".enc.gtvcol") }

// EncodeSeed derives the dedicated fit/transform RNG seed from a party's
// training seed. Encoding consumes its own stream so that a run which
// reuses a cached .enc.gtvcol (and therefore never fits or transforms)
// leaves the model stream untouched and follows the exact training
// trajectory of a run that encoded from scratch.
func EncodeSeed(seed int64) int64 { return seed ^ 0x6774762d636f6c31 }

// Metadata blob names inside the gtvcol files.
const (
	metaSpecs       = "specs"
	metaSource      = "source"
	metaTransformer = "transformer"
	metaFingerprint = "fingerprint"
)

// colstoreCodecVersion versions the spec/transformer blob encoding; bump
// on any layout change so stale caches re-encode instead of misparsing.
const colstoreCodecVersion = 1

const maxCodecElems = 1 << 24

// --- binary blob codec -----------------------------------------------------

func appendUv(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// blobCursor reads the length-prefixed binary blobs colstore stores in
// gtvcol metadata, latching the first error.
type blobCursor struct {
	b   []byte
	err error
}

func (c *blobCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("encoding: "+format, args...)
	}
}

func (c *blobCursor) uv() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("truncated varint in stored blob")
		return 0
	}
	c.b = c.b[n:]
	return v
}

// count reads a uvarint bounded by maxCodecElems, rejecting hostile
// lengths before they size an allocation.
func (c *blobCursor) count(what string) int {
	v := c.uv()
	if v > maxCodecElems {
		c.fail("stored blob %s count %d out of bounds", what, v)
		return 0
	}
	return int(v)
}

func (c *blobCursor) str(what string) string {
	n := c.count(what)
	if c.err != nil || n > len(c.b) {
		c.fail("truncated %s in stored blob", what)
		return ""
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s
}

func (c *blobCursor) f64() float64 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 8 {
		c.fail("truncated float in stored blob")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
	return v
}

func (c *blobCursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("encoding: %d trailing bytes in stored blob", len(c.b))
	}
	return nil
}

// --- spec codec ------------------------------------------------------------

func appendSpec(b []byte, s *ColumnSpec) []byte {
	b = appendUv(b, uint64(len(s.Name)))
	b = append(b, s.Name...)
	b = appendUv(b, uint64(s.Kind))
	b = appendUv(b, uint64(len(s.Categories)))
	for _, cat := range s.Categories {
		b = appendUv(b, uint64(len(cat)))
		b = append(b, cat...)
	}
	b = appendUv(b, uint64(len(s.SpecialValues)))
	for _, v := range s.SpecialValues {
		b = appendF64(b, v)
	}
	return b
}

func readSpec(c *blobCursor) ColumnSpec {
	var s ColumnSpec
	s.Name = c.str("spec name")
	s.Kind = ColumnKind(c.uv())
	if n := c.count("categories"); c.err == nil && n > 0 {
		s.Categories = make([]string, n)
		for i := range s.Categories {
			s.Categories[i] = c.str("category label")
		}
	}
	if n := c.count("special values"); c.err == nil && n > 0 {
		s.SpecialValues = make([]float64, n)
		for i := range s.SpecialValues {
			s.SpecialValues[i] = c.f64()
		}
	}
	return s
}

func encodeSpecs(specs []ColumnSpec) []byte {
	b := appendUv(nil, colstoreCodecVersion)
	b = appendUv(b, uint64(len(specs)))
	for i := range specs {
		b = appendSpec(b, &specs[i])
	}
	return b
}

func decodeSpecs(blob []byte) ([]ColumnSpec, error) {
	c := &blobCursor{b: blob}
	if v := c.uv(); c.err == nil && v != colstoreCodecVersion {
		return nil, fmt.Errorf("encoding: stored specs codec version %d, want %d", v, colstoreCodecVersion)
	}
	specs := make([]ColumnSpec, c.count("columns"))
	for i := range specs {
		specs[i] = readSpec(c)
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// --- transformer codec -----------------------------------------------------

// encodeBinary serializes the fitted transformer: specs plus, per column,
// the GMM parameters as raw float64 bits. Spans and widths are layout,
// not state — decodeTransformer rebuilds them with buildLayout, the same
// routine FitTransformer uses, so a decoded transformer is functionally
// identical to the one that was fitted.
func (tr *Transformer) encodeBinary() []byte {
	b := appendUv(nil, colstoreCodecVersion)
	b = appendUv(b, uint64(len(tr.cols)))
	for j := range tr.cols {
		enc := &tr.cols[j]
		b = appendSpec(b, &enc.spec)
		if enc.mixture == nil {
			b = appendUv(b, 0)
			continue
		}
		b = appendUv(b, uint64(enc.mixture.K()))
		for _, v := range enc.mixture.Weights {
			b = appendF64(b, v)
		}
		for _, v := range enc.mixture.Means {
			b = appendF64(b, v)
		}
		for _, v := range enc.mixture.Stds {
			b = appendF64(b, v)
		}
	}
	return b
}

func decodeTransformer(blob []byte) (*Transformer, error) {
	c := &blobCursor{b: blob}
	if v := c.uv(); c.err == nil && v != colstoreCodecVersion {
		return nil, fmt.Errorf("encoding: stored transformer codec version %d, want %d", v, colstoreCodecVersion)
	}
	n := c.count("columns")
	tr := &Transformer{specs: make([]ColumnSpec, n), cols: make([]colEncoder, n)}
	for j := 0; j < n; j++ {
		spec := readSpec(c)
		enc := colEncoder{spec: spec}
		if k := c.count("mixture components"); k > 0 {
			m := gmm.Model{
				Weights: make([]float64, k),
				Means:   make([]float64, k),
				Stds:    make([]float64, k),
			}
			for i := range m.Weights {
				m.Weights[i] = c.f64()
			}
			for i := range m.Means {
				m.Means[i] = c.f64()
			}
			for i := range m.Stds {
				m.Stds[i] = c.f64()
			}
			enc.mixture = &m
		}
		if len(spec.SpecialValues) > 0 {
			enc.specialIdx = make(map[float64]int, len(spec.SpecialValues))
			for i, v := range spec.SpecialValues {
				enc.specialIdx[v] = i
			}
		}
		tr.specs[j] = spec
		tr.cols[j] = enc
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	for j := range tr.cols {
		enc := &tr.cols[j]
		if err := enc.spec.Validate(); err != nil {
			return nil, err
		}
		if (enc.spec.Kind != KindCategorical) != (enc.mixture != nil) {
			return nil, fmt.Errorf("encoding: stored transformer column %q mixture presence does not match kind", enc.spec.Name)
		}
	}
	tr.buildLayout()
	return tr, nil
}

// --- fingerprint -----------------------------------------------------------

// encodeFingerprint hashes everything that determines the encoded matrix:
// the encode seed, the GMM configuration, the row count and the column
// specs. A cached .enc.gtvcol is reused only when its recorded
// fingerprint matches, so stale caches (different data, seed or config)
// re-encode instead of silently training on the wrong matrix.
func encodeFingerprint(seed int64, cfg gmm.Config, rows int, specs []ColumnSpec) []byte {
	b := appendUv(nil, colstoreCodecVersion)
	b = binary.AppendVarint(b, seed)
	b = appendUv(b, uint64(rows))
	b = appendUv(b, uint64(cfg.MaxComponents))
	b = appendF64(b, cfg.WeightThreshold)
	b = appendUv(b, uint64(cfg.MaxIter))
	b = appendF64(b, cfg.Tol)
	b = appendUv(b, uint64(len(specs)))
	for i := range specs {
		b = appendSpec(b, &specs[i])
	}
	sum := sha256.Sum256(b)
	return sum[:]
}

// --- columnar backing ------------------------------------------------------

// colBacking serves a party's encoded matrix out of an immutable gtvcol
// file in physical row order; resident memory stays bounded by the
// reader's block cache.
type colBacking struct {
	// r reads the encoded real rows; everything it serves is exactly as
	// sensitive as the in-memory encoded matrix it replaces.
	//privacy:source client encoded matrix (on-disk columnar store)
	r *coldata.Reader
	// idxBuf is the reusable int32 row-index scratch for GatherRows.
	idxBuf []int32
}

// Rows implements Backing.
func (b *colBacking) Rows() int { return b.r.Rows() }

// Width implements Backing.
func (b *colBacking) Width() int { return b.r.Cols() }

// GatherRows implements Backing: the batch is gathered straight from
// cached compact blocks into a pooled matrix the caller must Release.
//
//shape: out(N,W)
func (b *colBacking) GatherRows(idx []int) (*tensor.Dense, error) {
	if cap(b.idxBuf) < len(idx) {
		b.idxBuf = make([]int32, len(idx))
	}
	phys := b.idxBuf[:len(idx)]
	for k, i := range idx {
		if i < 0 || i >= b.r.Rows() {
			return nil, fmt.Errorf("encoding: gather row %d out of range %d", i, b.r.Rows())
		}
		phys[k] = int32(i)
	}
	dst := tensor.NewPooledUninit(len(idx), b.r.Cols())
	if err := b.r.GatherRowsInto(phys, dst); err != nil {
		dst.Release()
		return nil, err
	}
	return dst, nil
}

// Dense implements Backing by expanding the whole file into a pooled
// matrix (owned by the caller), scattering each physical row to pos[p].
// This is the memory-heavy escape hatch the faithful real pass needs;
// batched training never calls it.
//
//shape: out(R,W)
func (b *colBacking) Dense(pos []int32) (*tensor.Dense, bool, error) {
	rows, cols := b.r.Rows(), b.r.Cols()
	if pos != nil && len(pos) != rows {
		return nil, false, fmt.Errorf("encoding: row map length %d for %d rows", len(pos), rows)
	}
	m := tensor.NewPooledUninit(rows, cols)
	err := b.r.ScanStripes(func(first int, block *tensor.Dense) error {
		for i := 0; i < block.Rows(); i++ {
			at := first + i
			if pos != nil {
				at = int(pos[at])
			}
			copy(m.RawRow(at), block.RawRow(i))
		}
		return nil
	})
	if err != nil {
		m.Release()
		return nil, false, err
	}
	return m, true, nil
}

// Close implements Backing.
func (b *colBacking) Close() error { return b.r.Close() }

// --- encode/open -----------------------------------------------------------

// OpenOrEncode produces a party's fitted transformer and encoded-matrix
// backing. With storage disabled it fits and transforms in memory exactly
// as the trainers always have. With storage enabled it reuses
// <Name>.enc.gtvcol when the recorded fingerprint matches (skipping GMM
// fitting and encoding entirely), or encodes once — streaming stripe by
// stripe, never holding the full encoded matrix — and atomically installs
// the file for the next run. Both paths consume the dedicated
// EncodeSeed stream, so in-memory, freshly encoded and cache-hit runs all
// train bit-identically from the same seed.
func OpenOrEncode(st Storage, t *Table, seed int64, cfg gmm.Config) (*Transformer, Backing, error) {
	if !st.Enabled() {
		encRng := rng.New(EncodeSeed(seed))
		tr, err := FitTransformer(encRng.Rand, t, cfg)
		if err != nil {
			return nil, nil, err
		}
		enc, err := tr.Transform(encRng.Rand, t)
		if err != nil {
			return nil, nil, err
		}
		return tr, NewDenseBacking(enc), nil
	}
	fp := encodeFingerprint(seed, cfg, t.Rows(), t.Specs)
	if r, err := coldata.Open(st.EncPath(), st.CacheBytes); err == nil {
		if bytes.Equal(r.Meta(metaFingerprint), fp) && r.Rows() == t.Rows() {
			if tr, err := decodeTransformer(r.Meta(metaTransformer)); err == nil && tr.Width() == r.Cols() {
				return tr, &colBacking{r: r}, nil
			}
		}
		// Stale cache (different seed, config or data): fall through and
		// re-encode over it.
		//lint:ignore errdrop a close failure on a stale cache cannot affect the re-encode
		_ = r.Close()
	}

	encRng := rng.New(EncodeSeed(seed))
	tr, err := FitTransformer(encRng.Rand, t, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(st.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	tmp := st.EncPath() + ".tmp"
	w, err := coldata.Create(tmp, tr.Width(), st.BlockRows)
	if err != nil {
		return nil, nil, err
	}
	werr := w.SetMeta(metaFingerprint, fp)
	if werr == nil {
		werr = w.SetMeta(metaTransformer, tr.encodeBinary())
	}
	if werr == nil {
		werr = tr.TransformTo(encRng.Rand, t, w.AppendRow)
	}
	if werr == nil {
		werr = w.Close()
	} else {
		//lint:ignore errdrop the encode error already describes the failure; the temp file is removed
		_ = w.Close()
	}
	if werr == nil {
		werr = os.Rename(tmp, st.EncPath())
	}
	if werr != nil {
		//lint:ignore errdrop best-effort cleanup of the temp file
		_ = os.Remove(tmp)
		return nil, nil, fmt.Errorf("encoding: writing %s: %w", tmp, werr)
	}
	r, err := coldata.Open(st.EncPath(), st.CacheBytes)
	if err != nil {
		return nil, nil, err
	}
	return tr, &colBacking{r: r}, nil
}

// WriteRawTable writes t's raw columns, specs and a source tag to
// st.RawPath() (atomically, via a temp file). The tag lets a rerun decide
// whether the stored rows are the ones it would regenerate.
func WriteRawTable(st Storage, t *Table, sourceTag string) error {
	if !st.Enabled() {
		return fmt.Errorf("encoding: WriteRawTable requires a data directory")
	}
	if err := os.MkdirAll(st.Dir, 0o755); err != nil {
		return err
	}
	tmp := st.RawPath() + ".tmp"
	w, err := coldata.Create(tmp, t.Cols(), st.BlockRows)
	if err != nil {
		return err
	}
	werr := w.SetMeta(metaSpecs, encodeSpecs(t.Specs))
	if werr == nil {
		werr = w.SetMeta(metaSource, []byte(sourceTag))
	}
	if werr == nil {
		werr = t.ScanRows(func(_ int, row []float64) error { return w.AppendRow(row) })
	}
	if werr == nil {
		werr = w.Close()
	} else {
		//lint:ignore errdrop the write error already describes the failure; the temp file is removed
		_ = w.Close()
	}
	if werr == nil {
		werr = os.Rename(tmp, st.RawPath())
	}
	if werr != nil {
		//lint:ignore errdrop best-effort cleanup of the temp file
		_ = os.Remove(tmp)
		return fmt.Errorf("encoding: writing %s: %w", tmp, werr)
	}
	return nil
}

// OpenRawTable opens st.RawPath() as a stored Table whose columns are
// read through the block cache on demand. The returned tag is what
// WriteRawTable recorded; callers compare it before trusting the rows.
func OpenRawTable(st Storage) (*Table, string, error) {
	r, err := coldata.Open(st.RawPath(), st.CacheBytes)
	if err != nil {
		return nil, "", err
	}
	specs, err := decodeSpecs(r.Meta(metaSpecs))
	if err != nil {
		//lint:ignore errdrop the decode error is the one worth reporting
		_ = r.Close()
		return nil, "", err
	}
	t, err := NewStoredTable(specs, r)
	if err != nil {
		//lint:ignore errdrop the construction error is the one worth reporting
		_ = r.Close()
		return nil, "", err
	}
	return t, string(r.Meta(metaSource)), nil
}
