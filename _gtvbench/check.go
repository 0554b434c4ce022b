package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"

	"repro/internal/encoding"
)

// checkTable verifies that pub is a well-formed synthetic copy of ref: it
// has wantRows rows and ref's schema, every continuous or mixed cell is
// finite, and every categorical cell is a category code of its column.
func checkTable(pub, ref *encoding.Table, wantRows int) error {
	if pub == nil || pub.Data == nil {
		return fmt.Errorf("published table is missing or not in memory")
	}
	if pub.Rows() != wantRows {
		return fmt.Errorf("published %d rows, want %d", pub.Rows(), wantRows)
	}
	if len(pub.Specs) != len(ref.Specs) || pub.Cols() != len(ref.Specs) {
		return fmt.Errorf("published %d columns, want %d", pub.Cols(), len(ref.Specs))
	}
	for j := range ref.Specs {
		if err := sameSpec(pub.Specs[j], ref.Specs[j]); err != nil {
			return fmt.Errorf("column %d: %w", j, err)
		}
	}
	for i := 0; i < pub.Rows(); i++ {
		row := pub.Data.RawRow(i)
		for j, spec := range pub.Specs {
			v := row[j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("row %d column %q is not finite: %v", i, spec.Name, v)
			}
			//lint:ignore floateq a category code must be exactly integral; the Trunc round trip is the exactness test
			if spec.Kind == encoding.KindCategorical && (v != math.Trunc(v) || v < 0 || int(v) >= len(spec.Categories)) {
				return fmt.Errorf("row %d column %q holds %v, not a code in [0, %d)", i, spec.Name, v, len(spec.Categories))
			}
		}
	}
	return nil
}

func sameSpec(got, want encoding.ColumnSpec) error {
	if got.Name != want.Name || got.Kind != want.Kind {
		return fmt.Errorf("got %s %q, want %s %q", got.Kind, got.Name, want.Kind, want.Name)
	}
	if len(got.Categories) != len(want.Categories) {
		return fmt.Errorf("%q has %d categories, want %d", got.Name, len(got.Categories), len(want.Categories))
	}
	for k := range want.Categories {
		if got.Categories[k] != want.Categories[k] {
			return fmt.Errorf("%q category %d is %q, want %q", got.Name, k, got.Categories[k], want.Categories[k])
		}
	}
	if len(got.SpecialValues) != len(want.SpecialValues) {
		return fmt.Errorf("%q has %d special values, want %d", got.Name, len(got.SpecialValues), len(want.SpecialValues))
	}
	for k := range want.SpecialValues {
		if math.Float64bits(got.SpecialValues[k]) != math.Float64bits(want.SpecialValues[k]) {
			return fmt.Errorf("%q special value %d differs", got.Name, k)
		}
	}
	return nil
}

// tableHash digests a table's schema and the exact bits of every cell, so
// two tables hash alike only when they are byte-identical.
func tableHash(t *encoding.Table) [32]byte {
	b := make([]byte, 0, 8*(len(t.Data.Data())+64))
	putInt := func(v int) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	putStr := func(s string) {
		putInt(len(s))
		b = append(b, s...)
	}
	putInt(t.Rows())
	putInt(len(t.Specs))
	for _, s := range t.Specs {
		putStr(s.Name)
		putInt(int(s.Kind))
		putInt(len(s.Categories))
		for _, c := range s.Categories {
			putStr(c)
		}
		putInt(len(s.SpecialValues))
		for _, v := range s.SpecialValues {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, v := range t.Data.Data() {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return sha256.Sum256(b)
}

// fileSig identifies one version of a file by its content and identity: a
// rewrite, even an atomic rename of identical bytes, changes the inode or
// the modification time.
type fileSig struct {
	name  string
	size  int64
	mtime int64 // nanoseconds since the Unix epoch
	inode uint64
	sum   [32]byte
}

// storeSignature lists the regular files in dir, sorted by name. The
// stores are a few MiB, so hashing their content is cheap.
func storeSignature(dir string) ([]fileSig, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var sigs []fileSig
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		if !info.Mode().IsRegular() {
			continue
		}
		sig := fileSig{name: e.Name(), size: info.Size(), mtime: info.ModTime().UnixNano()}
		if st, ok := info.Sys().(*syscall.Stat_t); ok {
			sig.inode = st.Ino
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sig.sum = sha256.Sum256(data)
		sigs = append(sigs, sig)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].name < sigs[j].name })
	return sigs, nil
}

// sameSignature reports how after differs from before, or nil.
func sameSignature(before, after []fileSig) error {
	if len(before) != len(after) {
		return fmt.Errorf("store held %d files, now %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			return fmt.Errorf("store file %s was rewritten", before[i].name)
		}
	}
	return nil
}
