// Command gtvbench is the repository's end-to-end benchmark. Each
// invocation runs one workload as whole runs, from dataset generation to
// the published synthetic table, checks every run's output and prints the
// metrics, the last line being one JSON object:
//
//	bash _gtvbench/run.sh --workload fed-wire --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the runs are untraced and the metrics are the end-to-end
// ones. With --trace 1 the benchmark makes one untraced and one traced run
// on a held-out seed derived from --seed and reports the per-layer split.
// Each workload is a closed loop: the server waits for every client reply
// before its next call.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/stats"
	"repro/internal/vfl"
)

// heldOutSeed derives the traced invocation's seed, which no untraced
// invocation of the same --seed uses.
func heldOutSeed(seed int64) int64 { return seed ^ 0x5eed0ff5 }

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: fed-wire | fed-colstore | central-mem")
	seed := flag.Int64("seed", 1, "seed for the generated inputs and training")
	seconds := flag.Int("seconds", 20, "measurement budget of an untraced invocation")
	trace := flag.Int("trace", 0, "1 reports the per-layer split from a traced run")
	state := flag.String("state", filepath.Join(".bench_build", "gtvbench"), "directory for stores, checkpoints and profiles")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "gtvbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*state, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "gtvbench:", err)
		return 1
	}
	b := &bench{w: w, state: *state}
	led := &ledger{}
	var (
		ms  *metricSet
		err error
	)
	if *trace == 1 {
		ms, err = b.traced(heldOutSeed(*seed), led)
	} else {
		b.synthTarget = synthTarget
		ms, err = b.untraced(*seed, time.Duration(*seconds)*time.Second, led)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtvbench:", err)
		return 1
	}
	declared := endToEndMetrics
	if *trace == 1 {
		declared = perLayerMetrics()
	}
	if err := ms.matches(declared); err != nil {
		fmt.Fprintln(os.Stderr, "gtvbench:", err)
		return 1
	}
	for _, e := range led.errs {
		fmt.Printf("FAILED %s\n", e)
	}
	for _, n := range ms.order {
		fmt.Printf("%-40s %16.6g %s\n", n, ms.values[n].Value, ms.values[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{led.failed == 0 && led.attempted > 0, led.attempted, led.failed, ms.values})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtvbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// checkRun applies the per-run correctness checks, each counted as an
// operation: the published table is well formed and, for stored
// workloads, the store files were not rewritten.
func (b *bench) checkRun(res *runResult, storeDir string, storeSig []fileSig, led *ledger) {
	led.op("published table", checkTable(res.published, res.train, b.w.synthRows))
	if storeDir != "" {
		sig, err := storeSignature(storeDir)
		if err == nil {
			err = sameSignature(storeSig, sig)
		}
		led.op("store cache hit", err)
	}
}

// checkIdentity counts the check that a run published exactly the bytes
// of the reference table with hash ref.
func checkIdentity(res *runResult, ref [32]byte, led *ledger) {
	var err error
	if ref != res.hash {
		err = fmt.Errorf("published table hash %s differs from the reference %s",
			hex.EncodeToString(res.hash[:8]), hex.EncodeToString(ref[:8]))
	}
	led.op("byte identity", err)
}

// prepareStore encodes the workload's gtvcol store for seed once, before
// any timed run, then makes an in-memory federated run on the same seed
// whose published table every stored run must reproduce byte for byte.
// It returns the store directory, its file signature and the reference
// hash.
func (b *bench) prepareStore(seed int64, led *ledger) (string, []fileSig, [32]byte, error) {
	var ref [32]byte
	dir := filepath.Join(b.state, "stores", b.w.name)
	// A store left by another seed would only be re-encoded over.
	if err := os.RemoveAll(dir); err != nil {
		return "", nil, ref, err
	}
	if err := b.encodeStore(seed, dir); err != nil {
		return "", nil, ref, fmt.Errorf("encoding the store: %w", err)
	}
	sig, err := storeSignature(dir)
	if err != nil {
		return "", nil, ref, err
	}
	if len(sig) == 0 {
		return "", nil, ref, fmt.Errorf("encoding wrote no store files in %s", dir)
	}
	mem, err := b.runOnce(seed, "", nil, led)
	if err != nil {
		return "", nil, ref, fmt.Errorf("in-memory reference run: %w", err)
	}
	led.op("in-memory reference table", checkTable(mem.published, mem.train, b.w.synthRows))
	return dir, sig, mem.hash, nil
}

// encodeStore builds each client once over the store, which fits and
// encodes its party's table into dir, and closes it.
func (b *bench) encodeStore(seed int64, dir string) error {
	train, err := loadTrain(b.w.rows, seed)
	if err != nil {
		return err
	}
	parts, err := splitParties(train)
	if err != nil {
		return err
	}
	coord := vfl.NewShuffleCoordinator(0) // encoding draws nothing from it
	for i, p := range parts {
		c, err := vfl.NewLocalClientStored(p, coord, clientSeed(seed, i), clientStorage(dir, i))
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		if err := c.Close(); err != nil {
			return err
		}
	}
	return nil
}

// collect drops a finished run's tables and returns the freed memory to
// the operating system, outside any timed span.
func collect(res *runResult) {
	res.train, res.published = nil, nil
	runtime.GC()
	debug.FreeOSMemory()
}

// synthTarget is how much synthesis an untraced run times. One call takes
// 0.15-0.5 s on a 2-CPU machine, short enough for a scheduling hiccup to
// move it.
const synthTarget = time.Second

// minRuns is the fewest whole runs an untraced invocation makes, all on
// --seed: enough for a median to set one slow run aside, and for the
// byte-identity check to compare runs.
const minRuns = 3

// untraced makes minRuns whole runs on --seed, then more while the budget
// lasts, and reports the end-to-end metrics. The round percentiles are
// taken within each run and their median over runs is reported, so a
// slow spell of the machine during one run moves at most that run's
// figures.
func (b *bench) untraced(seed int64, budget time.Duration, led *ledger) (*metricSet, error) {
	var (
		ref      [32]byte
		haveRef  bool
		storeDir string
		storeSig []fileSig
	)
	if b.w.stored {
		var err error
		if storeDir, storeSig, ref, err = b.prepareStore(seed, led); err != nil {
			return nil, err
		}
		haveRef = true
	}
	runtime.GC()
	debug.FreeOSMemory()

	var (
		runs            int
		totals, setups  []float64
		samples, synths []float64
		heaps           []float64
		p50s, p90s      []float64
		roundSamples    int
		measureStart    = time.Now()
		lastWall        time.Duration
	)
	for runs < minRuns || time.Since(measureStart)+lastWall <= budget {
		t := time.Now()
		res, err := b.runOnce(seed, storeDir, nil, led)
		if err != nil {
			return nil, err
		}
		b.checkRun(res, storeDir, storeSig, led)
		if haveRef {
			checkIdentity(res, ref, led)
		} else {
			ref, haveRef = res.hash, true
		}
		runs++
		rounds := ms(res.rounds)
		p90, ok := percentile(rounds, 0.9)
		if !ok {
			return nil, fmt.Errorf("run %d has %d rounds: its p90 has fewer than %d beyond it", runs, len(rounds), minTail)
		}
		totals = append(totals, res.total.Seconds())
		setups = append(setups, res.setup.Seconds())
		samples = append(samples, samplesPerRound()*float64(len(res.rounds))/res.training.Seconds())
		for _, d := range res.synth {
			synths = append(synths, float64(b.w.synthRows)/d.Seconds())
		}
		heaps = append(heaps, float64(res.liveHeap)/(1<<20))
		p50s = append(p50s, median(rounds))
		p90s = append(p90s, p90)
		roundSamples += len(rounds)
		fmt.Printf("run %d (seed %d): run %.3fs, setup %.3fs, round p50 %.3fms, round p90 %.3fms, synth p50 %.3fms, live heap %.1fMiB\n",
			runs, seed, res.total.Seconds(), res.setup.Seconds(), p50s[len(p50s)-1], p90, median(ms(res.synth)), heaps[len(heaps)-1])
		collect(res)
		lastWall = time.Since(t)
	}
	fmt.Printf("workload %s seed %d: %d runs, %d round samples (p50 and p90 taken within each run)\n",
		b.w.name, seed, runs, roundSamples)
	m := newMetricSet()
	m.add("run_s", "s", median(totals))
	m.add("setup_s", "s", median(setups))
	m.add("train_samples_per_s", "1/s", median(samples))
	m.add("round_ms_p50", "ms", median(p50s))
	m.add("round_ms_p90", "ms", median(p90s))
	m.add("synth_rows_per_s", "1/s", median(synths))
	m.add("live_heap_mb", "MiB", median(heaps))
	return m, nil
}

// traced makes one untraced and one traced run on seed and reports the
// per-layer split of the traced one.
func (b *bench) traced(seed int64, led *ledger) (*metricSet, error) {
	var (
		ref      [32]byte
		storeDir string
		storeSig []fileSig
		err      error
	)
	if b.w.stored {
		if storeDir, storeSig, ref, err = b.prepareStore(seed, led); err != nil {
			return nil, err
		}
	}
	base, err := b.runOnce(seed, storeDir, nil, led)
	if err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	b.checkRun(base, storeDir, storeSig, led)
	if b.w.stored {
		checkIdentity(base, ref, led)
	} else {
		ref = base.hash
	}
	baseTotal := base.total
	collect(base)

	probe, err := b.probeSetup(seed, storeDir)
	if err != nil {
		return nil, fmt.Errorf("set-up probe: %w", err)
	}
	runtime.GC()
	debug.FreeOSMemory()
	// The peak RSS must cover the traced run alone: on fed-colstore the
	// in-memory reference run above peaks far higher than a stored run.
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting the peak RSS: %w", err)
	}

	tr := newTracer(b.w.wire)
	prof := filepath.Join(b.state, "cpu-"+b.w.name+".pprof")
	stopProfile, err := startCPUProfile(prof)
	if err != nil {
		return nil, err
	}
	res, err := b.runOnce(seed, storeDir, tr, led)
	if perr := stopProfile(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	b.checkRun(res, storeDir, storeSig, led)
	checkIdentity(res, ref, led)
	t := time.Now()
	quality, qerr := stats.Similarity(res.train, res.published)
	similarity := time.Since(t)
	led.op("quality check", qerr)
	peakRSS, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof)
	if err != nil {
		return nil, fmt.Errorf("attributing the CPU profile: %w", err)
	}

	m := newMetricSet()
	m.add("datasets.generate_s", "s", res.generate.Seconds())
	m.add("encoding.fit_s", "s", probe.fit.Seconds())
	m.add("encoding.transform_s", "s", probe.transform.Seconds())
	m.add("encoding.open_store_s", "s", probe.openStore.Seconds())
	m.add("condvec.sampler_build_s", "s", probe.sampler.Seconds())
	m.add("vfl.server.handshake_s", "s", res.handshake.Seconds())
	for _, meth := range reportedMethods {
		d := ms(tr.inside.durations(meth))
		name := methodNames[meth]
		m.add("vfl.client."+name+".calls", "count", float64(len(d)))
		m.add("vfl.client."+name+".ms_p50", "ms", median(d))
		m.add("vfl.client."+name+".ms_p90", "ms", tailValue(d, 0.9))
		m.add("vfl.client."+name+".ms_total", "ms", sum(d))
	}
	for _, meth := range reportedMethods {
		name := methodNames[meth]
		overhead := 0.0
		if b.w.wire {
			overhead = sum(ms(tr.outside.durations(meth))) - sum(ms(tr.inside.durations(meth)))
		}
		m.add("gtvwire."+name+".overhead_ms_total", "ms", overhead)
		m.add("gtvwire."+name+".bytes", "bytes", float64(wireBytes(res.comm, name)))
	}
	wireMB := 0.0
	if len(res.rounds) > 0 {
		wireMB = float64(res.comm.WireBytes) / (1 << 20) / float64(len(res.rounds))
	}
	m.add("gtvwire.mb_per_round", "MiB", wireMB)
	m.add("trace.round_ms_p50", "ms", median(ms(res.rounds)))
	m.add("vfl.server.self_ms_p50", "ms", median(ms(res.self)))
	m.add("vfl.server.client_wait_ms_p50", "ms", median(ms(res.wait)))
	m.add("snap.checkpoint_ms_p50", "ms", median(ms(res.ckpts)))
	m.add("snap.checkpoint_bytes", "bytes", float64(res.ckptBytes))
	m.add("synthesize_s", "s", res.synth[0].Seconds())
	n := float64(len(res.rounds))
	m.add("runtime.alloc_mb_per_round", "MiB", float64(res.mem.bytes)/(1<<20)/n)
	m.add("runtime.allocs_per_round", "count", float64(res.mem.mallocs)/n)
	m.add("runtime.gc_cycles_per_round", "count", float64(res.mem.gcs)/n)
	m.add("runtime.peak_rss_mb", "MiB", peakRSS)
	for _, g := range cpuGroups {
		m.add("cpu."+g+".share", "ratio", shares[g])
	}
	m.add("stats.similarity_s", "s", similarity.Seconds())
	m.add("quality.avg_jsd", "ratio", quality.AvgJSD)
	m.add("quality.diff_corr", "ratio", quality.DiffCorr)
	m.add("trace.overhead_s", "s", (res.total - baseTotal).Seconds())
	fmt.Printf("workload %s held-out seed %d: traced run %.3fs, untraced %.3fs, %d round samples\n",
		b.w.name, seed, res.total.Seconds(), baseTotal.Seconds(), len(res.rounds))
	return m, nil
}

// wireBytes reads the measured bytes of one wire method from CommStats.
func wireBytes(c vfl.CommStats, method string) int64 {
	for i, v := range c.WireBytesByMethod {
		if vfl.WireMethodLabel(i) == method {
			return v
		}
	}
	return 0
}
