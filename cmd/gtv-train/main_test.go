package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunGTVTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	synthPath := filepath.Join(t.TempDir(), "synth.csv")
	var out bytes.Buffer
	err := run([]string{
		"-dataset", "loan", "-rows", "200", "-rounds", "6", "-batch", "32",
		"-block", "24", "-noise", "8", "-log-every", "3", "-synth-out", synthPath,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"GTV D2_0G2_0", "setup: ", "training: 6 rounds in", "statistical similarity", "ML utility difference"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	// Set-up is reported on its own line, before (and apart from) training.
	if strings.Index(out.String(), "setup: ") > strings.Index(out.String(), "training: ") {
		t.Fatalf("setup line after the training line:\n%s", out.String())
	}
	data, err := os.ReadFile(synthPath)
	if err != nil {
		t.Fatalf("reading synth csv: %v", err)
	}
	if !strings.HasPrefix(string(data), "age,") {
		t.Fatalf("csv header = %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestRunCentralizedTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	var out bytes.Buffer
	err := run([]string{
		"-dataset", "loan", "-rows", "200", "-rounds", "4", "-batch", "32",
		"-block", "24", "-noise", "8", "-centralized", "-log-every", "0",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "statistical similarity") {
		t.Fatalf("missing metrics output:\n%s", out.String())
	}
}

func TestRunRejectsBadPlan(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-plan", "garbage", "-rows", "100", "-rounds", "1"}, &out); err == nil {
		t.Fatal("expected plan parse error")
	}
}

func TestRunRejectsBadDataset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "nope"}, &out); err == nil {
		t.Fatal("expected dataset error")
	}
}
