package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuGroups are the packages a traced run's CPU samples are attributed
// to. math is the standard library's (gmm's EM spends its time in
// math.Log), runtime_gc the collector's marking and sweeping,
// runtime_other the rest of the runtime (allocation, scheduling, memory
// moves), syscall the system calls (socket and file I/O), other
// everything else: the rest of the standard library and the benchmark.
var cpuGroups = []string{
	"tensor", "autograd", "nn", "gmm", "encoding", "coldata", "condvec", "vfl", "gan",
	"datasets", "stats", "snap", "rng", "math", "runtime_gc", "runtime_other", "syscall", "other",
}

// startCPUProfile starts writing a CPU profile to path and returns the
// function that stops it and closes the file.
func startCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		//lint:ignore errdrop the profile never started; the start error is the one to report
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// cpuShares attributes the flat samples of a CPU profile to cpuGroups with
// `go tool pprof -top`, returning each group's share of all samples.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", "-unit=ms", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parsePprofTop(out)
}

// parsePprofTop reads the rows of `pprof -top -unit=ms` output
// ("flat flat% sum% cum cum% function") and sums the flat column by group.
func parsePprofTop(out []byte) (map[string]float64, error) {
	shares := make(map[string]float64, len(cpuGroups))
	for _, g := range cpuGroups {
		shares[g] = 0
	}
	var total float64
	header := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 5 && fields[0] == "flat" {
			header = true
			continue
		}
		if !header || len(fields) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		fn := strings.Join(fields[5:], " ")
		shares[cpuGroup(fn)] += flat
		total += flat
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header || total <= 0 {
		return nil, fmt.Errorf("pprof printed no samples")
	}
	for g := range shares {
		shares[g] /= total
	}
	return shares, nil
}

// gcFuncs are name prefixes of the garbage collector's runtime functions.
var gcFuncs = []string{
	"gc", "scan", "markroot", "greyobject", "findObject", "shade", "sweep", "bgsweep", "bgscavenge",
	"heapBits", "typePointers", "wbBuf", "(*gcWork)", "(*gcBits)", "(*wbBuf)", "(*markBits)",
	"(*mspan).sweep", "(*mspan).markBits", "(*mspan).typePointers", "(*sweepLocked)",
}

// cpuGroup maps a symbolized function name such as
// "repro/internal/tensor.(*Dense).At" or "runtime.scanobject" to its group.
func cpuGroup(fn string) string {
	pkg := fn
	rest := ""
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
		rest = fn[slash+1+dot+1:]
	}
	if p, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, g := range cpuGroups {
			if g == p {
				return g
			}
		}
		return "other"
	}
	switch pkg {
	case "math":
		return "math"
	case "syscall", "internal/runtime/syscall":
		return "syscall"
	}
	if pkg == "runtime" {
		for _, prefix := range gcFuncs {
			if strings.HasPrefix(rest, prefix) {
				return "runtime_gc"
			}
		}
		return "runtime_other"
	}
	return "other"
}

// resetPeakRSS sets the kernel's peak resident set size record (VmHWM)
// back to the current resident size, so a later peakRSSMiB covers only
// what runs after it.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set size since the last
// resetPeakRSS, read from VmHWM in /proc/self/status.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("reading VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
