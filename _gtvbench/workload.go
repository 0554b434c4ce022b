package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/condvec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/gan"
	"repro/internal/gmm"
	"repro/internal/rng"
	"repro/internal/vfl"
)

const (
	datasetName = "adult"
	numClients  = 2
	testFrac    = 0.2
)

// workload is one benchmark configuration. Every workload trains on the
// synthetic Adult table with the core.DefaultOptions model sizes; the
// federated ones use two clients driven concurrently.
type workload struct {
	name      string
	rows      int // generated rows; 80% form the training split
	rounds    int
	synthRows int
	federated bool
	wire      bool // gtvwire over TCP loopback instead of in-process calls
	stored    bool // encoded matrices come from an encode-once gtvcol store
	ckptEvery int  // rounds between checkpoints; 0 means none
}

var workloads = []workload{
	{name: "fed-wire", rows: 10000, rounds: 400, synthRows: 8000, federated: true, wire: true, ckptEvery: 100},
	{name: "fed-colstore", rows: 300000, rounds: 150, synthRows: 20000, federated: true, stored: true},
	{name: "central-mem", rows: 300000, rounds: 150, synthRows: 20000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ledger counts the operations a benchmark invocation attempts (rounds,
// checkpoints, synthesis calls and correctness checks) and those that
// failed, keeping the first failures for the report.
type ledger struct {
	attempted, failed int
	errs              []string
}

func (l *ledger) op(what string, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errs) < 8 {
			l.errs = append(l.errs, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// tracer holds the traced run's recorders: inside times each call within
// the client, outside times it as the server sees it (the same log on the
// in-process transport).
type tracer struct {
	origin          time.Time
	inside, outside *callLog
}

func newTracer(wire bool) *tracer {
	origin := time.Now()
	t := &tracer{origin: origin, inside: newCallLog(origin, !wire)}
	t.outside = t.inside
	if wire {
		t.outside = newCallLog(origin, true)
	}
	return t
}

// runResult is what one whole run measured.
type runResult struct {
	train     *encoding.Table // the real training split
	published *encoding.Table
	hash      [32]byte

	total, setup, training time.Duration
	generate, handshake    time.Duration
	rounds                 []time.Duration
	synth                  []time.Duration // the publishing call first
	liveHeap               uint64          // bytes
	comm                   vfl.CommStats
	ckpts                  []time.Duration
	ckptBytes              int64 // size of the last checkpoint

	// Traced runs only: per round, the union of in-flight client calls
	// and the rest of the round, and the allocator's work over the loop.
	wait, self []time.Duration
	mem        memDelta
}

// memDelta is the allocator's work between two runtime.MemStats reads.
type memDelta struct{ bytes, mallocs, gcs uint64 }

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{bytes: b.TotalAlloc - a.TotalAlloc, mallocs: b.Mallocs - a.Mallocs, gcs: uint64(b.NumGC - a.NumGC)}
}

// stopwatch measures a run's wall time minus the pauses the benchmark
// itself inserts (forced collections for the live-heap reading).
type stopwatch struct {
	start  time.Time
	paused time.Duration
}

func newStopwatch() *stopwatch { return &stopwatch{start: time.Now()} }

func (s *stopwatch) elapsed() time.Duration { return time.Since(s.start) - s.paused }

func (s *stopwatch) pause(f func()) {
	t := time.Now()
	f()
	s.paused += time.Since(t)
}

// liveHeap returns the heap still reachable after forced collections. The
// second collection empties the sync.Pool victim caches the first one
// fills, so pooled buffers do not count as live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	m := readMem()
	return m.HeapAlloc
}

// loadTrain generates the dataset and returns its training split.
func loadTrain(rows int, seed int64) (*encoding.Table, error) {
	d, err := datasets.Generate(datasetName, datasets.Config{Rows: rows, Seed: seed})
	if err != nil {
		return nil, err
	}
	train, _, err := d.TrainTestSplit(rand.New(rand.NewSource(seed)), testFrac)
	return train, err
}

// clientSeed is client i's seed, as core.New derives it.
func clientSeed(seed int64, i int) int64 { return seed + int64(i)*1000 }

func clientStorage(dir string, i int) encoding.Storage {
	if dir == "" {
		return encoding.Storage{}
	}
	return encoding.Storage{Dir: dir, Name: fmt.Sprintf("client-%d", i)}
}

// splitParties splits train across the clients as core.NewFromAssignment
// does.
func splitParties(train *encoding.Table) ([]*encoding.Table, error) {
	assignment, err := core.EvenAssignment(train.Cols(), numClients)
	if err != nil {
		return nil, err
	}
	return train.VerticalSplit(assignment, numClients)
}

func vflConfig(rounds int, seed int64) vfl.Config {
	o := core.DefaultOptions()
	return vfl.Config{
		Plan:        o.Plan,
		Rounds:      rounds,
		DiscSteps:   o.DiscSteps,
		BatchSize:   o.BatchSize,
		NoiseDim:    o.NoiseDim,
		BlockDim:    o.BlockDim,
		GenBlockDim: o.GenBlockDim,
		LR:          o.LR,
		Pac:         o.Pac,
		Seed:        seed,
		Parallelism: o.Parallelism,
	}
}

func ganConfig(rounds int, seed int64) gan.Config {
	o := core.DefaultOptions()
	return gan.Config{
		Rounds:     rounds,
		DiscSteps:  o.DiscSteps,
		BatchSize:  o.BatchSize,
		NoiseDim:   o.NoiseDim,
		BlockDim:   o.BlockDim,
		GenBlocks:  2,
		DiscBlocks: 2,
		LR:         o.LR,
		Pac:        o.Pac,
		Seed:       seed,
	}
}

// samplesPerRound is rounds × critic steps × batch divided by rounds.
func samplesPerRound() float64 {
	o := core.DefaultOptions()
	return float64(o.DiscSteps * o.BatchSize)
}

// federation owns what a federated run builds: the in-process clients,
// the loopback listeners serving them and the wire proxies dialed to them.
type federation struct {
	locals    []*vfl.LocalClient
	listeners []net.Listener
	served    []chan struct{}
	proxies   []io.Closer
}

// serveWire serves c with gtvwire on a fresh loopback listener and returns
// the dialed proxy.
func (f *federation) serveWire(c vfl.Client) (*vfl.WireClient, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.listeners = append(f.listeners, lis)
	done := make(chan struct{})
	f.served = append(f.served, done)
	//lint:ignore goroleak serve loop: it returns when close shuts the listener, and close waits for done
	go func() {
		defer close(done)
		//lint:ignore errdrop the serve loop ends with an error once close shuts the listener
		_ = vfl.ServeClientWire(lis, c)
	}()
	wc, err := vfl.DialWireClient("tcp", lis.Addr().String())
	if err != nil {
		return nil, err
	}
	f.proxies = append(f.proxies, wc)
	return wc, nil
}

// close tears the federation down: proxies, then listeners (waiting for
// their serve loops to return), then the clients' data backings.
func (f *federation) close() error {
	var errs []error
	for _, p := range f.proxies {
		errs = append(errs, p.Close())
	}
	for _, l := range f.listeners {
		errs = append(errs, l.Close())
	}
	for _, done := range f.served {
		<-done
	}
	for _, c := range f.locals {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}

// bench runs one workload.
type bench struct {
	w     workload
	state string // directory for stores, checkpoints and profiles
	// synthTarget is how much synthesis time a run measures; the
	// publishing call alone when zero.
	synthTarget time.Duration
}

// runOnce makes one whole run, from dataset generation to the published
// synthetic table. storeDir selects the gtvcol store (federated runs
// only); tr, when set, records the per-layer trace.
func (b *bench) runOnce(seed int64, storeDir string, tr *tracer, led *ledger) (*runResult, error) {
	if b.w.federated {
		return b.runFederated(seed, storeDir, tr, led)
	}
	return b.runCentral(seed, tr, led)
}

func (b *bench) runFederated(seed int64, storeDir string, tr *tracer, led *ledger) (res *runResult, err error) {
	ckptDir := filepath.Join(b.state, "ckpt")
	if b.w.ckptEvery > 0 {
		if err := os.RemoveAll(ckptDir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return nil, err
		}
	}
	fed := &federation{}
	defer func() {
		if cerr := fed.close(); cerr != nil && err == nil {
			err = fmt.Errorf("teardown: %w", cerr)
		}
	}()

	res = &runResult{}
	sw := newStopwatch()
	t := time.Now()
	train, err := loadTrain(b.w.rows, seed)
	if err != nil {
		return nil, err
	}
	res.generate = time.Since(t)
	res.train = train
	parts, err := splitParties(train)
	if err != nil {
		return nil, err
	}
	coord := vfl.NewShuffleCoordinator(core.DefaultOptions().ShuffleSecret)
	clients := make([]vfl.Client, len(parts))
	for i, p := range parts {
		c, err := vfl.NewLocalClientStored(p, coord, clientSeed(seed, i), clientStorage(storeDir, i))
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		fed.locals = append(fed.locals, c)
		var served vfl.Client = c
		if tr != nil {
			served = &timedClient{inner: c, log: tr.inside}
		}
		clients[i] = served
		if b.w.wire {
			wc, err := fed.serveWire(served)
			if err != nil {
				return nil, fmt.Errorf("client %d wire: %w", i, err)
			}
			clients[i] = wc
			if tr != nil {
				clients[i] = &timedClient{inner: wc, log: tr.outside}
			}
		}
	}
	t = time.Now()
	server, err := vfl.NewServer(clients, vflConfig(b.w.rounds, seed))
	if err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}
	res.handshake = time.Since(t)
	res.setup = sw.elapsed()
	var heapSetup, heapTrained uint64
	sw.pause(func() { heapSetup = liveHeap() })

	var before runtime.MemStats
	if tr != nil {
		sw.pause(func() {
			tr.outside.takeSpans()
			before = readMem()
		})
	}
	trainStart := sw.elapsed()
	for round := 0; round < b.w.rounds; round++ {
		t := time.Now()
		_, _, err := server.TrainRound()
		d := time.Since(t)
		led.op("round", err)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		res.rounds = append(res.rounds, d)
		if tr != nil {
			lo := t.Sub(tr.origin)
			wait := unionLength(tr.outside.takeSpans(), lo, lo+d)
			res.wait = append(res.wait, wait)
			res.self = append(res.self, d-wait)
		}
		if b.w.ckptEvery > 0 && (round+1)%b.w.ckptEvery == 0 {
			t := time.Now()
			path, err := server.SaveCheckpoint(ckptDir)
			d := time.Since(t)
			var size int64
			if err == nil {
				var info os.FileInfo
				if info, err = os.Stat(path); err == nil {
					size = info.Size()
				}
			}
			led.op("checkpoint", err)
			if err != nil {
				return nil, fmt.Errorf("checkpoint after round %d: %w", round, err)
			}
			res.ckpts = append(res.ckpts, d)
			res.ckptBytes = size
		}
	}
	res.training = sw.elapsed() - trainStart
	if tr != nil {
		sw.pause(func() { res.mem = diffMem(before, readMem()) })
	}
	sw.pause(func() { heapTrained = liveHeap() })
	res.liveHeap = max(heapSetup, heapTrained)

	if err := b.synthesize(res, sw, server.Synthesize, led); err != nil {
		return nil, err
	}
	res.comm = server.CommStats()
	return res, nil
}

func (b *bench) runCentral(seed int64, tr *tracer, led *ledger) (*runResult, error) {
	res := &runResult{}
	sw := newStopwatch()
	t := time.Now()
	train, err := loadTrain(b.w.rows, seed)
	if err != nil {
		return nil, err
	}
	res.generate = time.Since(t)
	res.train = train
	c, err := gan.NewCentralized(train, ganConfig(b.w.rounds, seed))
	if err != nil {
		return nil, fmt.Errorf("centralized setup: %w", err)
	}
	//lint:ignore errdrop the in-memory backing holds no files; its Close cannot fail
	defer c.Close()
	res.setup = sw.elapsed()
	var heapSetup, heapTrained uint64
	sw.pause(func() { heapSetup = liveHeap() })

	var before runtime.MemStats
	if tr != nil {
		sw.pause(func() { before = readMem() })
	}
	trainStart := sw.elapsed()
	last := time.Now()
	err = c.Train(func(int, float64, float64) {
		now := time.Now()
		res.rounds = append(res.rounds, now.Sub(last))
		led.op("round", nil)
		last = now
	})
	if err != nil {
		led.op("round", err)
		return nil, err
	}
	res.training = sw.elapsed() - trainStart
	if tr != nil {
		sw.pause(func() { res.mem = diffMem(before, readMem()) })
	}
	sw.pause(func() { heapTrained = liveHeap() })
	res.liveHeap = max(heapSetup, heapTrained)

	if err := b.synthesize(res, sw, c.Synthesize, led); err != nil {
		return nil, err
	}
	return res, nil
}

// synthesize publishes the run's synthetic table, which ends the timed
// run, then repeats the call until the run has timed b.synthTarget of
// synthesis, so the synthesis rate does not rest on one short call. The
// repeats' tables are dropped.
func (b *bench) synthesize(res *runResult, sw *stopwatch, synth func(int) (*encoding.Table, error), led *ledger) error {
	var spent time.Duration
	for i := 0; i == 0 || spent < b.synthTarget; i++ {
		t := time.Now()
		pub, err := synth(b.w.synthRows)
		d := time.Since(t)
		spent += d
		res.synth = append(res.synth, d)
		led.op("synthesize", err)
		if err != nil {
			return fmt.Errorf("synthesize: %w", err)
		}
		if i == 0 {
			res.total = sw.elapsed()
			res.published = pub
			res.hash = tableHash(pub)
		}
	}
	return nil
}

// setupProbe times the encoding-layer steps a client or trainer
// constructor runs internally, by calling them directly on the same
// inputs with the same seeds.
type setupProbe struct {
	fit, transform, openStore, sampler time.Duration
}

func (b *bench) probeSetup(seed int64, storeDir string) (setupProbe, error) {
	var p setupProbe
	train, err := loadTrain(b.w.rows, seed)
	if err != nil {
		return p, err
	}
	parties := []*encoding.Table{train}
	seeds := []int64{seed}
	if b.w.federated {
		if parties, err = splitParties(train); err != nil {
			return p, err
		}
		seeds = []int64{clientSeed(seed, 0), clientSeed(seed, 1)}
	}
	for i, part := range parties {
		var tr *encoding.Transformer
		if storeDir != "" {
			t := time.Now()
			var data encoding.Backing
			tr, data, err = encoding.OpenOrEncode(clientStorage(storeDir, i), part, seeds[i], gmm.DefaultConfig())
			p.openStore += time.Since(t)
			if err != nil {
				return p, err
			}
			if err := data.Close(); err != nil {
				return p, err
			}
		} else {
			r := rng.New(encoding.EncodeSeed(seeds[i]))
			t := time.Now()
			tr, err = encoding.FitTransformer(r.Rand, part, gmm.DefaultConfig())
			p.fit += time.Since(t)
			if err != nil {
				return p, err
			}
			t = time.Now()
			_, err = tr.Transform(r.Rand, part)
			p.transform += time.Since(t)
			if err != nil {
				return p, err
			}
		}
		t := time.Now()
		_, err = condvec.NewSampler(part, tr)
		p.sampler += time.Since(t)
		if err != nil {
			return p, err
		}
	}
	return p, nil
}
