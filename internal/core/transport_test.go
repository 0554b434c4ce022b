package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/encoding"
)

// TestTransportLoopback drives the same seeded federation in-process and
// over gtvwire loopback listeners: the synthesized tables must be
// byte-identical, Close must return the goroutine count to its baseline,
// and any other transport name (the removed "gob" included) is rejected.
func TestTransportLoopback(t *testing.T) {
	d, err := datasets.Generate("loan", datasets.Config{Rows: 120, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	assignment, err := EvenAssignment(d.Table.Cols(), 2)
	if err != nil {
		t.Fatalf("EvenAssignment: %v", err)
	}
	options := func(transport string) Options {
		opts := DefaultOptions()
		opts.Rounds = 2
		opts.DiscSteps = 1
		opts.BatchSize = 20
		opts.NoiseDim = 8
		opts.BlockDim = 16
		opts.Transport = transport
		return opts
	}
	synthesize := func(transport string) []byte {
		g, err := NewFromAssignment(d.Table, assignment, 2, options(transport))
		if err != nil {
			t.Fatalf("%s: NewFromAssignment: %v", transport, err)
		}
		if err := g.Train(nil); err != nil {
			t.Fatalf("%s: Train: %v", transport, err)
		}
		synth, err := g.Synthesize(40)
		if err != nil {
			t.Fatalf("%s: Synthesize: %v", transport, err)
		}
		if err := g.Close(); err != nil {
			t.Fatalf("%s: Close: %v", transport, err)
		}
		var buf bytes.Buffer
		if err := encoding.WriteCSV(&buf, synth); err != nil {
			t.Fatalf("%s: WriteCSV: %v", transport, err)
		}
		return buf.Bytes()
	}

	// The local run goes first so lazily started worker pools are already
	// part of the baseline the binary run's teardown is measured against.
	local := synthesize("local")
	base := runtime.NumGoroutine()
	binary := synthesize("binary")
	if !bytes.Equal(local, binary) {
		t.Fatal("binary transport synthesized different bytes than local")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, bad := range []string{"gob", "tcp"} {
		_, err := NewFromAssignment(d.Table, assignment, 2, options(bad))
		if err == nil || !strings.Contains(err.Error(), "want local or binary") {
			t.Fatalf("Transport %q: want an error listing local and binary, got %v", bad, err)
		}
	}
}
