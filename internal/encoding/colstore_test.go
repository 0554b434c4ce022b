package encoding

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bin"
	"repro/internal/gmm"
)

// goldenColstoreSpecs covers every column kind, an empty category label,
// a non-ASCII name and special values of both signs.
func goldenColstoreSpecs() []ColumnSpec {
	return []ColumnSpec{
		{Name: "age", Kind: KindContinuous},
		{Name: "job", Kind: KindCategorical, Categories: []string{"admin", "", "técnico"}},
		{Name: "loan", Kind: KindMixed, SpecialValues: []float64{0, -1.5}},
	}
}

// goldenColstoreBlobs builds the pinned metadata blobs colstore writes
// into gtvcol files: the raw table's specs, the fitted transformer and
// the encode fingerprint. The transformer is assembled by hand so the
// fixture pins the codec, not the GMM fit. Regenerate with
//
//	GTV_UPDATE_COL_FIXTURES=1 go test ./internal/encoding -run TestColstoreGoldenBlobs
//
// and treat any diff in testdata/colstore as a layout change that must
// bump colstoreCodecVersion: the fingerprint is a hash over the spec
// bytes, so a silent drift re-encodes every cached store.
func goldenColstoreBlobs() map[string][]byte {
	specs := goldenColstoreSpecs()
	tr := &Transformer{specs: specs, cols: []colEncoder{
		{spec: specs[0], mixture: &gmm.Model{Weights: []float64{0.75, 0.25}, Means: []float64{-3, 41.5}, Stds: []float64{0.5, 12.25}}},
		{spec: specs[1]},
		{spec: specs[2], mixture: &gmm.Model{Weights: []float64{1}, Means: []float64{1e6}, Stds: []float64{3.0e-3}}},
	}}
	cfg := gmm.Config{MaxComponents: 10, WeightThreshold: 0.005, MaxIter: 100, Tol: 1e-3}
	return map[string][]byte{
		"specs.bin":       encodeSpecs(specs),
		"transformer.bin": tr.encodeBinary(),
		"fingerprint.bin": encodeFingerprint(-7, cfg, 240000, specs),
	}
}

func TestColstoreGoldenBlobs(t *testing.T) {
	dir := filepath.Join("testdata", "colstore")
	blobs := goldenColstoreBlobs()
	if os.Getenv("GTV_UPDATE_COL_FIXTURES") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", dir, err)
		}
		for name, blob := range blobs {
			if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
				t.Fatalf("writing fixture %s: %v", name, err)
			}
		}
	}
	for name, want := range blobs {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading fixture %s (regenerate with GTV_UPDATE_COL_FIXTURES=1): %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("fixture %s: colstore blob diverged from the pinned bytes; bump colstoreCodecVersion", name)
		}
	}
}

// TestColstoreGoldenBlobsDecode decodes the pinned blobs and re-encodes
// them, holding the decoders to the same bytes as the encoders.
func TestColstoreGoldenBlobsDecode(t *testing.T) {
	read := func(name string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("testdata", "colstore", name))
		if err != nil {
			t.Fatalf("reading fixture %s: %v", name, err)
		}
		return raw
	}
	specs, err := decodeSpecs(read("specs.bin"))
	if err != nil {
		t.Fatalf("decodeSpecs: %v", err)
	}
	if !reflect.DeepEqual(specs, goldenColstoreSpecs()) {
		t.Fatalf("decoded specs %+v", specs)
	}
	raw := read("transformer.bin")
	tr, err := decodeTransformer(raw)
	if err != nil {
		t.Fatalf("decodeTransformer: %v", err)
	}
	if !bytes.Equal(tr.encodeBinary(), raw) {
		t.Fatal("decoded transformer re-encodes to different bytes")
	}
	if tr.Width() != (1+2)+3+(1+2+1) {
		t.Fatalf("decoded transformer width %d", tr.Width())
	}
}

// TestColstoreBlobCountBoundedByInput feeds the decoders a 5-byte blob
// (codec version 1, then a count of 2^24): it must fail on the count the
// input cannot hold, before allocating for it.
func TestColstoreBlobCountBoundedByInput(t *testing.T) {
	e := &bin.Enc{}
	e.Uvarint(colstoreCodecVersion)
	e.Uvarint(1 << 24)
	blob := e.Buf
	if len(blob) != 5 {
		t.Fatalf("hostile blob is %d bytes, want 5", len(blob))
	}
	for name, decode := range map[string]func([]byte) error{
		"specs": func(b []byte) error { _, err := decodeSpecs(b); return err },
		"transformer": func(b []byte) error {
			_, err := decodeTransformer(b)
			return err
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoder accepted a count of 2^24 in a 5-byte blob", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: decoding a 5-byte blob allocated %d bytes", name, alloc)
		}
	}
}
