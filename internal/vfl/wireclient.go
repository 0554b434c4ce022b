package vfl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// WireClient is the server-side proxy for a remote client process speaking
// the gtvwire binary protocol (see wire.go). A WireClient pipelines:
// concurrent calls each get a sequence number, all frames share one
// persistent connection, and a demux goroutine routes each response to the
// caller waiting on its sequence number — so the fan-out in Server
// overlaps network round-trips to a single client as well as across
// clients.
//
// Every call observes the client's CallPolicy: per-call deadlines,
// transient-error retry with backoff, and a redial before each retry so a
// restarted client process can rejoin mid-training.
type WireClient struct {
	network, addr string
	policy        CallPolicy

	// f32 selects the float32 element encoding for activation and
	// gradient matrices (see SetFloat32). It must be set before the first
	// call and never changed mid-training.
	f32 bool

	// delta enables the delta-encoded snapshot transfer (see SetDelta).
	delta bool

	// counters tallies exact framed bytes (headers included) across the
	// connection's whole lifetime, surviving redials.
	counters wireByteCounters

	mu     sync.Mutex
	sess   *wireSession // guarded by mu
	closed bool         // guarded by mu; set by Close, fails every later call

	// snapMu guards the delta-transfer base: the last full snapshot blob
	// this proxy received, and the responder epoch that produced it. The
	// cache survives redials (the responder detects staleness by epoch and
	// falls back to a full transfer).
	snapMu    sync.Mutex
	snapBase  []byte
	snapEpoch uint64
}

// wireByteCounters tallies framed traffic in both directions, total and
// attributed per wire method.
type wireByteCounters struct {
	sent, recv     atomic.Int64
	sentBy, recvBy [wireNumMethods]atomic.Int64
}

func (w *wireByteCounters) addSent(method byte, n int64) {
	w.sent.Add(n)
	if int(method) < wireNumMethods {
		w.sentBy[method].Add(n)
	}
}

func (w *wireByteCounters) addRecv(method byte, n int64) {
	w.recv.Add(n)
	if int(method) < wireNumMethods {
		w.recvBy[method].Add(n)
	}
}

var _ Client = (*WireClient)(nil)

// DialWireClient connects to a remote GTV client over the binary wire with
// the zero CallPolicy (no deadline, no retry).
func DialWireClient(network, addr string) (*WireClient, error) {
	return DialWireClientPolicy(network, addr, CallPolicy{})
}

// DialWireClientPolicy connects to a remote GTV client over the binary
// wire and applies the policy to every subsequent call.
func DialWireClientPolicy(network, addr string, p CallPolicy) (*WireClient, error) {
	c := &WireClient{network: network, addr: addr, policy: p}
	if _, err := c.session(); err != nil {
		return nil, fmt.Errorf("vfl: dialing wire client %s: %w", addr, err)
	}
	return c, nil
}

// SetFloat32 switches activation and gradient matrices (ForwardSynthetic,
// ForwardReal, BackwardDisc, BackwardGen, GenerateRows) to the lossy
// float32 element encoding, halving boundary traffic. Setup, conditional
// vectors and published tables always travel as float64. Must be called
// before training starts; the mode is per-call-site, not negotiated, so
// both transports of a round must agree (the server sets it from one
// flag).
func (c *WireClient) SetFloat32(on bool) { c.f32 = on }

// SetDelta enables the delta-encoded snapshot transfer: after the first
// full Snapshot fetch, subsequent fetches ship only the byte ranges that
// changed since the last one, with an epoch tag and checksum forcing a
// full re-transfer whenever the proxy's base is stale (responder restart,
// missed fetch). Lossless — the reassembled blob is byte-identical to a
// full fetch — so it composes with checkpoint golden tests. Off by
// default.
func (c *WireClient) SetDelta(on bool) { c.delta = on }

// WireBytes returns the exact framed bytes exchanged with this client in
// both directions, headers included.
func (c *WireClient) WireBytes() int64 {
	return c.counters.sent.Load() + c.counters.recv.Load()
}

// WireBytesByMethod returns the same traffic attributed per wire method.
func (c *WireClient) WireBytesByMethod() WireMethodBytes {
	var out WireMethodBytes
	for i := range out {
		out[i] = c.counters.sentBy[i].Load() + c.counters.recvBy[i].Load()
	}
	return out
}

// session returns the live session, dialing if necessary. The dial
// happens under mu deliberately — single-flight, so a burst of pipelined
// calls after a redial shares one connection instead of racing to dial —
// and is bounded by the policy timeout, so holding the lock cannot
// outlive the deadline the caller was promised.
func (c *WireClient) session() (*wireSession, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("vfl: wire client %s: %w", c.addr, net.ErrClosed)
	}
	if c.sess == nil {
		//lint:ignore lockorder single-flight dial: mu serializes redials on purpose, and DialTimeout bounds the hold to the per-call policy deadline
		conn, err := net.DialTimeout(c.network, c.addr, c.policy.Timeout)
		if err != nil {
			return nil, err
		}
		c.sess = newWireSession(conn, &c.counters)
	}
	return c.sess, nil
}

// redial drops the (presumed broken) session so the next attempt dials
// fresh. Calls in flight on the old session fail transiently and retry
// onto the new one.
func (c *WireClient) redial() {
	c.mu.Lock()
	if c.sess != nil {
		c.sess.fail(fmt.Errorf("vfl: wire session reset: %w", net.ErrClosed))
		c.sess = nil
	}
	c.mu.Unlock()
}

// Close shuts the connection down; in-flight calls fail, and every later
// call fails fast instead of redialing a client that was told to go away.
func (c *WireClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.sess == nil {
		return nil
	}
	err := c.sess.conn.Close()
	c.sess.fail(fmt.Errorf("vfl: wire client closed: %w", net.ErrClosed))
	c.sess = nil
	return err
}

// wireResult is one demuxed response frame.
type wireResult struct {
	hdr     wireHeader
	payload []byte // pooled; the receiver must putWireBuf after decoding
	err     error
}

// wireSession is one live connection: a write half serializing frame
// writes, and a read-loop goroutine demultiplexing response frames to the
// callers registered in pending.
type wireSession struct {
	conn     net.Conn
	r        *bufio.Reader // owned by the readLoop goroutine
	counters *wireByteCounters

	wmu sync.Mutex
	w   *bufio.Writer // guarded by wmu

	mu      sync.Mutex
	nextSeq uint64                     // guarded by mu
	pending map[uint64]chan wireResult // guarded by mu
	closed  error                      // guarded by mu; non-nil once the session is dead
}

func newWireSession(conn net.Conn, counters *wireByteCounters) *wireSession {
	s := &wireSession{
		conn:     conn,
		r:        bufio.NewReaderSize(conn, 1<<16),
		w:        bufio.NewWriterSize(conn, 1<<16),
		counters: counters,
		pending:  make(map[uint64]chan wireResult),
	}
	//lint:ignore goroleak demux daemon whose exit path is the connection itself: readWireFrame fails the moment the conn closes or resets, and fail() then returns the loop
	go s.readLoop()
	return s
}

// fail marks the session dead exactly once: the connection closes, and
// every pending caller receives err. Later roundTrip attempts fail fast
// with the same error.
func (s *wireSession) fail(err error) {
	s.mu.Lock()
	if s.closed != nil {
		s.mu.Unlock()
		return
	}
	s.closed = err
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	// The session is already being torn down for err; the close error
	// carries no further information.
	//lint:ignore errdrop closing a dead session's connection, the error adds nothing
	_ = s.conn.Close()
	for _, ch := range pending {
		ch <- wireResult{err: err}
	}
}

// readLoop demultiplexes response frames to waiting callers until the
// connection dies. Frames whose caller abandoned the wait (per-call
// deadline fired) are dropped.
func (s *wireSession) readLoop() {
	for {
		h, payload, err := readWireFrame(s.r)
		if err != nil {
			s.fail(fmt.Errorf("vfl: wire connection lost: %w", err))
			return
		}
		s.counters.addRecv(h.method, wireHeaderLen+int64(h.payloadLen))
		s.mu.Lock()
		ch, ok := s.pending[h.seq]
		delete(s.pending, h.seq)
		s.mu.Unlock()
		if !ok {
			putWireBuf(payload)
			continue
		}
		ch <- wireResult{hdr: h, payload: payload}
	}
}

// writeFrame writes one frame and flushes. Concurrent pipelined calls
// interleave whole frames, never partial ones.
func (s *wireSession) writeFrame(h wireHeader, payload []byte) error {
	var hdr [wireHeaderLen]byte
	h.put(hdr[:])
	s.wmu.Lock()
	defer s.wmu.Unlock()
	//lint:ignore lockorder wmu exists to serialize whole frames onto the shared conn; a peer stuck mid-write dies with the conn, which fails the session and releases every caller
	if _, err := s.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := s.w.Write(payload); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	s.counters.addSent(h.method, int64(wireHeaderLen+len(payload)))
	return nil
}

// roundTrip sends one request frame and blocks until its response frame
// (matched by sequence number) arrives or the session dies. The returned
// payload is pooled; the caller must putWireBuf it after decoding.
func (s *wireSession) roundTrip(method, flags byte, payload []byte) (wireHeader, []byte, error) {
	if len(payload) > wireMaxPayload {
		return wireHeader{}, nil, fmt.Errorf("gtvwire: request payload %d exceeds limit %d", len(payload), wireMaxPayload)
	}
	ch := make(chan wireResult, 1)
	s.mu.Lock()
	if s.closed != nil {
		err := s.closed
		s.mu.Unlock()
		return wireHeader{}, nil, err
	}
	seq := s.nextSeq
	s.nextSeq++
	s.pending[seq] = ch
	s.mu.Unlock()

	h := wireHeader{
		payloadLen: uint32(len(payload)),
		version:    wireVersion,
		kind:       wireKindRequest,
		method:     method,
		flags:      flags,
		seq:        seq,
	}
	if err := s.writeFrame(h, payload); err != nil {
		// fail drains pending (including this call's channel) unless the
		// readLoop delivered the response first — either way ch is filled.
		s.fail(fmt.Errorf("vfl: wire write failed: %w", err))
	}
	r := <-ch
	return r.hdr, r.payload, r.err
}

// wireCall runs one protocol call over the wire under the client's policy.
// encode appends the request payload; decode reads the response payload.
// Each attempt builds its own request and owns its own response, so an
// abandoned timed-out attempt can never race with a retry.
func wireCall[R any](c *WireClient, method byte, f32 bool, encode func(*wireEnc), decode func(*wireDec) R) (R, error) {
	what := fmt.Sprintf("%s to client %s", wireMethodName(method), c.addr)
	return callWithPolicy(c.policy, what, c.redial, func() (R, error) {
		var zero R
		s, err := c.session()
		if err != nil {
			return zero, err
		}
		enc := newWireEnc()
		if encode != nil {
			encode(enc)
		}
		var flags byte
		if f32 {
			flags |= wireFlagF32
		}
		hdr, payload, err := s.roundTrip(method, flags, enc.buf)
		enc.release()
		if err != nil {
			return zero, err
		}
		defer putWireBuf(payload)
		dec := newWireDec(payload)
		if hdr.kind == wireKindError {
			// Application-level error from the remote client: the call
			// reached it, so this is deliberately not transient.
			msg := dec.str()
			if derr := dec.finish(); derr != nil {
				return zero, derr
			}
			return zero, errors.New(msg)
		}
		var out R
		if decode != nil {
			out = decode(dec)
		}
		if derr := dec.finish(); derr != nil {
			return zero, derr
		}
		return out, nil
	})
}

// Info implements Client.
func (c *WireClient) Info() (ClientInfo, error) {
	return wireCall(c, wireMethodInfo, false, nil, func(d *wireDec) ClientInfo { return d.clientInfo() })
}

// Configure implements Client.
func (c *WireClient) Configure(s Setup) error {
	_, err := wireCall[struct{}](c, wireMethodConfigure, false, func(e *wireEnc) { e.setup(s) }, nil)
	return err
}

// SampleCV implements Client.
func (c *WireClient) SampleCV(batch int, synthesis bool) (*condvec.Batch, error) {
	return wireCall(c, wireMethodSampleCV, false, func(e *wireEnc) {
		e.i64(int64(batch))
		e.bool(synthesis)
	}, func(d *wireDec) *condvec.Batch { return d.cvBatch() })
}

// SampleCVFixed implements Client.
func (c *WireClient) SampleCVFixed(batch, spanIdx, category int) (*condvec.Batch, error) {
	return wireCall(c, wireMethodSampleCVFixed, false, func(e *wireEnc) {
		e.i64(int64(batch))
		e.i64(int64(spanIdx))
		e.i64(int64(category))
	}, func(d *wireDec) *condvec.Batch { return d.cvBatch() })
}

// ForwardSynthetic implements Client.
//
//shape: in(B,W) out(B,K)
func (c *WireClient) ForwardSynthetic(slice *tensor.Dense, phase Phase) (*tensor.Dense, error) {
	return wireCall(c, wireMethodForwardSynthetic, c.f32, func(e *wireEnc) {
		e.matrix(slice, c.f32)
		e.i64(int64(phase))
	}, func(d *wireDec) *tensor.Dense { return d.matrix() })
}

// ForwardReal implements Client.
//
//shape: out(R,K)
func (c *WireClient) ForwardReal(idx []int) (*tensor.Dense, error) {
	return wireCall(c, wireMethodForwardReal, c.f32, func(e *wireEnc) {
		e.bool(idx == nil)
		e.ints(idx)
	}, func(d *wireDec) *tensor.Dense { return d.matrix() })
}

// BackwardDisc implements Client.
//
//shape: in(Bs,K) in(Br,K2)
func (c *WireClient) BackwardDisc(gradSynth, gradReal *tensor.Dense) error {
	_, err := wireCall[struct{}](c, wireMethodBackwardDisc, c.f32, func(e *wireEnc) {
		e.matrix(gradSynth, c.f32)
		e.matrix(gradReal, c.f32)
	}, nil)
	return err
}

// BackwardGen implements Client.
//
//shape: in(B,K) out(B,W)
func (c *WireClient) BackwardGen(gradSynth *tensor.Dense, conditioned bool) (*tensor.Dense, error) {
	return wireCall(c, wireMethodBackwardGen, c.f32, func(e *wireEnc) {
		e.matrix(gradSynth, c.f32)
		e.bool(conditioned)
	}, func(d *wireDec) *tensor.Dense { return d.matrix() })
}

// EndRound implements Client.
func (c *WireClient) EndRound(round int) error {
	_, err := wireCall[struct{}](c, wireMethodEndRound, false, func(e *wireEnc) { e.i64(int64(round)) }, nil)
	return err
}

// GenerateRows implements Client.
//
//shape: in(B,W)
func (c *WireClient) GenerateRows(slice *tensor.Dense) error {
	_, err := wireCall[struct{}](c, wireMethodGenerateRows, c.f32, func(e *wireEnc) { e.matrix(slice, c.f32) }, nil)
	return err
}

// Snapshot implements Client: it fetches the remote client's checkpoint
// blob, an opaque KindClient gtvsnap image. With SetDelta enabled the
// fetch ships only the byte ranges changed since the previous one (see
// wiredelta.go); a stale base — responder restarted, checksum mismatch —
// triggers one transparent full re-fetch.
func (c *WireClient) Snapshot() ([]byte, error) {
	if !c.delta {
		return wireCall(c, wireMethodSnapshot, false, func(e *wireEnc) {
			e.bool(false)
		}, func(d *wireDec) []byte { return d.bytes() })
	}
	blob, err := c.snapshotDelta()
	if err != nil && errors.Is(err, errWireSnapStale) {
		c.snapMu.Lock()
		c.snapBase, c.snapEpoch = nil, 0
		c.snapMu.Unlock()
		blob, err = c.snapshotDelta()
	}
	return blob, err
}

// snapshotDelta runs one delta-capable snapshot fetch against the cached
// base and updates the cache on success.
func (c *WireClient) snapshotDelta() ([]byte, error) {
	c.snapMu.Lock()
	base, baseEpoch := c.snapBase, c.snapEpoch
	c.snapMu.Unlock()
	type snapReply struct {
		blob  []byte
		epoch uint64
	}
	reply, err := wireCall(c, wireMethodSnapshot, false, func(e *wireEnc) {
		e.bool(true)
		if base == nil {
			e.uvarint(0)
		} else {
			e.uvarint(baseEpoch)
		}
	}, func(d *wireDec) snapReply {
		form := d.u8()
		epoch := d.uvarint()
		switch form {
		case wireSnapFull:
			return snapReply{blob: d.bytes(), epoch: epoch}
		case wireSnapDelta:
			crc := d.u32()
			newLen := int(d.uvarint())
			if d.err != nil {
				return snapReply{}
			}
			if newLen != len(base) {
				d.fail("snapshot delta against %d-byte base, have %d: %w", newLen, len(base), errWireSnapStale)
				return snapReply{}
			}
			blob := decodeSnapDelta(d, base, newLen)
			if blob == nil {
				return snapReply{}
			}
			if snapDeltaCRC(blob) != crc {
				d.fail("snapshot delta checksum mismatch: %w", errWireSnapStale)
				return snapReply{}
			}
			return snapReply{blob: blob, epoch: epoch}
		}
		d.fail("invalid snapshot transfer form %d", form)
		return snapReply{}
	})
	if err != nil {
		return nil, err
	}
	c.snapMu.Lock()
	// Keep a private copy as the next base: the returned blob escapes to
	// the caller, which may retain or mutate it.
	c.snapBase = append([]byte(nil), reply.blob...)
	c.snapEpoch = reply.epoch
	c.snapMu.Unlock()
	return reply.blob, nil
}

// Restore implements Client: it ships a checkpoint blob back to the
// remote client for reinstatement.
func (c *WireClient) Restore(state []byte) error {
	_, err := wireCall[struct{}](c, wireMethodRestore, false, func(e *wireEnc) { e.bytes(state) }, nil)
	return err
}

// Publish implements Client.
func (c *WireClient) Publish() (*encoding.Table, error) {
	reply, err := wireCall(c, wireMethodPublish, false, nil, func(d *wireDec) *encoding.Table {
		specs := d.specs()
		data := d.matrix()
		return &encoding.Table{Specs: specs, Data: data}
	})
	if err != nil {
		return nil, err
	}
	if reply.Data == nil {
		return nil, errors.New("gtvwire: Publish response carries no table data")
	}
	return encoding.NewTable(reply.Specs, reply.Data)
}
