package nn

// Checkpoint support: the optimizer trajectory state and the gtvsnap
// codec helpers for layers and Adam. Resume-at-round-k is only
// byte-identical when the Adam step count and both moment estimates come
// back exactly — the bias corrections 1-beta^t and the per-element
// moments feed every subsequent update — so the optimizer state is a
// first-class part of the snapshot format, serialized in Params() order
// (the same stable order EncodeParams/RestoreParams rely on).

import (
	"fmt"

	ag "repro/internal/autograd"
	"repro/internal/snap"
	"repro/internal/tensor"
)

// AdamState is the serializable trajectory state of one Adam optimizer,
// aligned index-for-index with a parameter list in Params() order.
// Entries of M and V are nil for parameters Step has not touched yet
// (lazily-created moments), and that nilness round-trips.
//
//snap:state
type AdamState struct {
	// T is the step count; the bias corrections depend on it.
	T int
	// M holds the first-moment estimates.
	M []*tensor.Dense
	// V holds the second-moment estimates.
	V []*tensor.Dense
}

// StateFor captures the optimizer's state for the given parameter list.
// The returned matrices alias the optimizer's own moment buffers: encode
// (or copy) them before the next Step.
func (a *Adam) StateFor(params []*ag.Value) AdamState {
	var st AdamState
	st.T = a.t
	st.M = make([]*tensor.Dense, len(params))
	st.V = make([]*tensor.Dense, len(params))
	for i, p := range params {
		st.M[i] = a.m[p]
		st.V[i] = a.v[p]
	}
	return st
}

// Restore reinstates a captured state for the given parameter list. The
// moment matrices in st pass into the optimizer's ownership.
func (a *Adam) Restore(params []*ag.Value, st AdamState) error {
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: Adam state holds %d/%d moments for %d params", len(st.M), len(st.V), len(params))
	}
	m := make(map[*ag.Value]*tensor.Dense, len(params))
	v := make(map[*ag.Value]*tensor.Dense, len(params))
	for i, p := range params {
		if (st.M[i] == nil) != (st.V[i] == nil) {
			return fmt.Errorf("nn: Adam state param %d has mismatched moment presence", i)
		}
		if st.M[i] == nil {
			continue
		}
		pr, pc := p.Shape()
		if st.M[i].Rows() != pr || st.M[i].Cols() != pc || st.V[i].Rows() != pr || st.V[i].Cols() != pc {
			return fmt.Errorf("nn: Adam state param %d moments %dx%d do not match param %dx%d",
				i, st.M[i].Rows(), st.M[i].Cols(), pr, pc)
		}
		m[p] = st.M[i]
		v[p] = st.V[i]
	}
	a.t = st.T
	a.m = m
	a.v = v
	return nil
}

// EncodeAdamState appends an Adam state to a snapshot section: the step
// count, then per parameter the first and second moment (nil-tagged).
func EncodeAdamState(e *snap.Enc, st AdamState) {
	e.I64(int64(st.T))
	e.U32(uint32(len(st.M)))
	for i := range st.M {
		e.Matrix(st.M[i])
		e.Matrix(st.V[i])
	}
}

// DecodeAdamState decodes a state written by EncodeAdamState. Decoded
// moment matrices come from the tensor free list and pass to the caller
// (normally straight into Adam.Restore).
func DecodeAdamState(d *snap.Dec) AdamState {
	var st AdamState
	st.T = int(d.I64())
	n := int(d.U32())
	// Each entry is at least two nil tags; bounding keeps a corrupt count
	// from driving allocation.
	if n > d.Remaining()/2 {
		d.Failf("Adam moment count %d exceeds section", n)
		return st
	}
	st.M = make([]*tensor.Dense, n)
	st.V = make([]*tensor.Dense, n)
	for i := 0; i < n; i++ {
		st.M[i] = d.Matrix()
		st.V[i] = d.Matrix()
	}
	return st
}

// BatchNorms returns the BatchNorm layers reachable from l in the same
// stable depth-first order Params uses. Running statistics live here
// rather than in Params() — they are trajectory state, not trainable
// parameters — so the snapshot codec needs its own traversal.
func BatchNorms(l Layer) []*BatchNorm {
	switch v := l.(type) {
	case *BatchNorm:
		return []*BatchNorm{v}
	case *Sequential:
		var out []*BatchNorm
		for _, c := range v.Layers {
			out = append(out, BatchNorms(c)...)
		}
		return out
	case *ResidualBlock:
		return []*BatchNorm{v.BN}
	default:
		return nil
	}
}

// EncodeParams appends a layer's parameter matrices in Params() order,
// followed by the running statistics of every BatchNorm in BatchNorms()
// order. The running estimates feed evaluation-mode forward passes, so a
// resumed run synthesizes byte-identically only if they come back exactly.
func EncodeParams(e *snap.Enc, l Layer) {
	params := l.Params()
	e.U32(uint32(len(params)))
	for _, p := range params {
		e.Matrix(p.Data())
	}
	bns := BatchNorms(l)
	e.U32(uint32(len(bns)))
	for _, bn := range bns {
		e.Matrix(bn.runningMean)
		e.Matrix(bn.runningVar)
	}
}

// RestoreParams decodes matrices written by EncodeParams into the live
// parameter tensors and BatchNorm running estimates of l (which must have
// the same architecture), copying element values and handing the decode
// buffers back to the free list.
func RestoreParams(d *snap.Dec, l Layer) error {
	params := l.Params()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(params) {
		return fmt.Errorf("nn: snapshot holds %d params, layer has %d", n, len(params))
	}
	for i, p := range params {
		m := d.Matrix()
		if m == nil {
			if err := d.Err(); err != nil {
				return err
			}
			return fmt.Errorf("nn: snapshot param %d is nil", i)
		}
		pr, pc := p.Shape()
		if m.Rows() != pr || m.Cols() != pc {
			err := fmt.Errorf("nn: snapshot param %d shape %dx%d does not match layer %dx%d",
				i, m.Rows(), m.Cols(), pr, pc)
			m.Release()
			return err
		}
		p.Data().CopyFrom(m)
		m.Release()
	}
	bns := BatchNorms(l)
	bn := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if bn != len(bns) {
		return fmt.Errorf("nn: snapshot holds %d batch-norm stats, layer has %d", bn, len(bns))
	}
	for i, b := range bns {
		if err := restoreNormStat(d, i, b.runningMean); err != nil {
			return err
		}
		if err := restoreNormStat(d, i, b.runningVar); err != nil {
			return err
		}
	}
	return nil
}

// restoreNormStat copies one decoded running-statistic row into dst.
func restoreNormStat(d *snap.Dec, i int, dst *tensor.Dense) error {
	m := d.Matrix()
	if m == nil {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("nn: snapshot batch-norm stat %d is nil", i)
	}
	if m.Rows() != dst.Rows() || m.Cols() != dst.Cols() {
		err := fmt.Errorf("nn: snapshot batch-norm stat %d shape %dx%d does not match layer %dx%d",
			i, m.Rows(), m.Cols(), dst.Rows(), dst.Cols())
		m.Release()
		return err
	}
	dst.CopyFrom(m)
	m.Release()
	return nil
}
