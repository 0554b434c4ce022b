package main

import (
	"sync"
	"time"

	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/tensor"
	"repro/internal/vfl"
)

// method identifies one vfl.Client call.
type method int

const (
	mInfo method = iota
	mConfigure
	mSampleCV
	mSampleCVFixed
	mForwardSynthetic
	mForwardReal
	mBackwardDisc
	mBackwardGen
	mEndRound
	mGenerateRows
	mPublish
	mSnapshot
	mRestore
	numMethods
)

var methodNames = [numMethods]string{
	"Info", "Configure", "SampleCV", "SampleCVFixed", "ForwardSynthetic", "ForwardReal",
	"BackwardDisc", "BackwardGen", "EndRound", "GenerateRows", "Publish", "Snapshot", "Restore",
}

// reportedMethods are the calls whose per-call metrics the traced run
// reports; the others run once at set-up or not at all in these workloads.
var reportedMethods = []method{
	mSampleCV, mForwardSynthetic, mForwardReal, mBackwardDisc, mBackwardGen,
	mEndRound, mGenerateRows, mPublish, mSnapshot,
}

// callLog records every call made through the timedClients sharing it:
// its duration per method and, while spans are kept, its interval.
type callLog struct {
	origin time.Time

	mu        sync.Mutex
	durs      [numMethods][]time.Duration // guarded by mu
	spans     []interval                  // guarded by mu
	keepSpans bool                        // guarded by mu
}

func newCallLog(origin time.Time, keepSpans bool) *callLog {
	return &callLog{origin: origin, keepSpans: keepSpans}
}

func (l *callLog) record(m method, start time.Time) {
	end := time.Now()
	l.mu.Lock()
	l.durs[m] = append(l.durs[m], end.Sub(start))
	if l.keepSpans {
		l.spans = append(l.spans, interval{start.Sub(l.origin), end.Sub(l.origin)})
	}
	l.mu.Unlock()
}

// takeSpans returns the intervals recorded since the last call and forgets
// them.
func (l *callLog) takeSpans() []interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}

// durations returns a copy of the durations recorded for m.
func (l *callLog) durations(m method) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.durs[m]...)
}

// timedClient decorates a vfl.Client with per-call timing. It forwards the
// transport's byte counters, so Server.CommStats reads the same WireBytes
// through the decorator as without it.
type timedClient struct {
	inner vfl.Client
	log   *callLog
}

var (
	_ vfl.Client                = (*timedClient)(nil)
	_ vfl.WireByteCounter       = (*timedClient)(nil)
	_ vfl.WireMethodByteCounter = (*timedClient)(nil)
)

func (t *timedClient) Info() (vfl.ClientInfo, error) {
	defer t.log.record(mInfo, time.Now())
	return t.inner.Info()
}

func (t *timedClient) Configure(s vfl.Setup) error {
	defer t.log.record(mConfigure, time.Now())
	return t.inner.Configure(s)
}

func (t *timedClient) SampleCV(batch int, synthesis bool) (*condvec.Batch, error) {
	defer t.log.record(mSampleCV, time.Now())
	return t.inner.SampleCV(batch, synthesis)
}

func (t *timedClient) SampleCVFixed(batch, spanIdx, category int) (*condvec.Batch, error) {
	defer t.log.record(mSampleCVFixed, time.Now())
	return t.inner.SampleCVFixed(batch, spanIdx, category)
}

// ForwardSynthetic times the inner call.
//
//shape:in(B,W) out(B,K)
func (t *timedClient) ForwardSynthetic(slice *tensor.Dense, phase vfl.Phase) (*tensor.Dense, error) {
	defer t.log.record(mForwardSynthetic, time.Now())
	return t.inner.ForwardSynthetic(slice, phase)
}

// ForwardReal times the inner call.
//
//shape:out(R,K)
func (t *timedClient) ForwardReal(idx []int) (*tensor.Dense, error) {
	defer t.log.record(mForwardReal, time.Now())
	return t.inner.ForwardReal(idx)
}

// BackwardDisc times the inner call.
//
//shape:in(Bs,K) in(Br,K2)
func (t *timedClient) BackwardDisc(gradSynth, gradReal *tensor.Dense) error {
	defer t.log.record(mBackwardDisc, time.Now())
	return t.inner.BackwardDisc(gradSynth, gradReal)
}

// BackwardGen times the inner call.
//
//shape:in(B,K) out(B,W)
func (t *timedClient) BackwardGen(gradSynth *tensor.Dense, conditioned bool) (*tensor.Dense, error) {
	defer t.log.record(mBackwardGen, time.Now())
	return t.inner.BackwardGen(gradSynth, conditioned)
}

func (t *timedClient) EndRound(round int) error {
	defer t.log.record(mEndRound, time.Now())
	return t.inner.EndRound(round)
}

// GenerateRows times the inner call.
//
//shape:in(B,W)
func (t *timedClient) GenerateRows(slice *tensor.Dense) error {
	defer t.log.record(mGenerateRows, time.Now())
	return t.inner.GenerateRows(slice)
}

func (t *timedClient) Publish() (*encoding.Table, error) {
	defer t.log.record(mPublish, time.Now())
	return t.inner.Publish()
}

func (t *timedClient) Snapshot() ([]byte, error) {
	defer t.log.record(mSnapshot, time.Now())
	return t.inner.Snapshot()
}

func (t *timedClient) Restore(state []byte) error {
	defer t.log.record(mRestore, time.Now())
	return t.inner.Restore(state)
}

// WireBytes forwards vfl.WireByteCounter; an in-process client counts 0.
func (t *timedClient) WireBytes() int64 {
	if c, ok := t.inner.(vfl.WireByteCounter); ok {
		return c.WireBytes()
	}
	return 0
}

// WireBytesByMethod forwards vfl.WireMethodByteCounter.
func (t *timedClient) WireBytesByMethod() vfl.WireMethodBytes {
	if c, ok := t.inner.(vfl.WireMethodByteCounter); ok {
		return c.WireBytesByMethod()
	}
	return vfl.WireMethodBytes{}
}
