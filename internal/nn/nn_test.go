package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	ag "repro/internal/autograd"
	"repro/internal/snap"
	"repro/internal/tensor"
)

func TestLinearShapesAndForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3)
	if l.In() != 4 || l.Out() != 3 {
		t.Fatalf("In/Out = %d/%d", l.In(), l.Out())
	}
	x := ag.Const(tensor.Randn(rng, 5, 4, 0, 1))
	y := l.Forward(x, true)
	if r, c := y.Shape(); r != 5 || c != 3 {
		t.Fatalf("forward shape = %dx%d", r, c)
	}
	// y = xW + b exactly.
	want := tensor.Add(tensor.MatMul(x.Data(), l.W.Data()), l.B.Data())
	if !y.Data().AllClose(want, 1e-12) {
		t.Fatal("linear forward mismatch")
	}
}

func TestLinearGradientDescentFitsLine(t *testing.T) {
	// A single linear layer should fit y = 2x + 1 almost exactly.
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, 1, 1)
	opt := NewSGD(0.1, 0.9)
	x := tensor.RandUniform(rng, 64, 1, -1, 1)
	y := tensor.Add(x.Scale(2), tensor.Full(64, 1, 1))
	var loss float64
	for i := 0; i < 200; i++ {
		pred := l.Forward(ag.Const(x), true)
		lv := ag.MeanAll(ag.Square(ag.Sub(pred, ag.Const(y))))
		loss = lv.Item()
		opt.Step(l.Params(), Grads(lv, l))
	}
	if loss > 1e-4 {
		t.Fatalf("final loss %v, want < 1e-4", loss)
	}
	if math.Abs(l.W.Data().At(0, 0)-2) > 0.05 || math.Abs(l.B.Data().At(0, 0)-1) > 0.05 {
		t.Fatalf("fitted W=%v B=%v want 2, 1", l.W.Data().At(0, 0), l.B.Data().At(0, 0))
	}
}

func TestBatchNormTrainStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bn := NewBatchNorm(3)
	x := ag.Const(tensor.Randn(rng, 128, 3, 5, 2)) // mean 5, std 2
	y := bn.Forward(x, true)
	mean := y.Data().MeanRows()
	for j := 0; j < 3; j++ {
		if math.Abs(mean.At(0, j)) > 1e-9 {
			t.Fatalf("normalized column %d mean = %v", j, mean.At(0, j))
		}
	}
	// Column variance should be ~1.
	centered := tensor.Sub(y.Data(), mean)
	variance := tensor.Mul(centered, centered).MeanRows()
	for j := 0; j < 3; j++ {
		if math.Abs(variance.At(0, j)-1) > 1e-4 {
			t.Fatalf("normalized column %d variance = %v", j, variance.At(0, j))
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bn := NewBatchNorm(2)
	// Feed many training batches so running stats converge to (5, 4).
	for i := 0; i < 200; i++ {
		bn.Forward(ag.Const(tensor.Randn(rng, 256, 2, 5, 2)), true)
	}
	// In eval mode a batch at the training mean should map near zero.
	y := bn.Forward(ag.Const(tensor.Full(4, 2, 5)), false)
	for j := 0; j < 2; j++ {
		if math.Abs(y.Data().At(0, j)) > 0.2 {
			t.Fatalf("eval output at running mean = %v, want ~0", y.Data().At(0, j))
		}
	}
}

func TestBatchNormGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bn := NewBatchNorm(3)
	xd := tensor.Randn(rng, 6, 3, 0, 1)
	f := func() *ag.Value {
		// Re-create running-stat side effects deterministically per call.
		return ag.SumAll(ag.Square(bn.Forward(ag.Const(xd), true)))
	}
	y := f()
	grads := ag.Grad(y, bn.Gamma, bn.Beta)
	const h = 1e-5
	for vi, p := range []*ag.Value{bn.Gamma, bn.Beta} {
		for j := 0; j < 3; j++ {
			orig := p.Data().At(0, j)
			p.Data().Set(0, j, orig+h)
			fp := f().Item()
			p.Data().Set(0, j, orig-h)
			fm := f().Item()
			p.Data().Set(0, j, orig)
			num := (fp - fm) / (2 * h)
			if math.Abs(grads[vi].Data().At(0, j)-num) > 1e-3 {
				t.Fatalf("batchnorm param %d[%d] grad %v numeric %v", vi, j, grads[vi].Data().At(0, j), num)
			}
		}
	}
}

func TestDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout(rng, 0.5)
	x := ag.Const(tensor.Full(100, 100, 1))
	yTrain := d.Forward(x, true)
	zeros := 0
	for _, v := range yTrain.Data().Data() {
		switch v {
		case 0:
			zeros++
		case 2:
			// kept and rescaled by 1/(1-0.5)
		default:
			t.Fatalf("dropout produced value %v, want 0 or 2", v)
		}
	}
	frac := float64(zeros) / 10000
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("dropout zero fraction = %v, want ~0.5", frac)
	}
	if yEval := d.Forward(x, false); !yEval.Data().Equal(x.Data()) {
		t.Fatal("dropout must be identity in eval mode")
	}
}

func TestResidualBlockConcatenates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rb := NewResidualBlock(rng, 4, 6)
	x := ag.Const(tensor.Randn(rng, 3, 4, 0, 1))
	y := rb.Forward(x, true)
	if _, c := y.Shape(); c != 10 {
		t.Fatalf("residual output width = %d want 10", c)
	}
	if rb.OutWidth() != 10 {
		t.Fatalf("OutWidth = %d want 10", rb.OutWidth())
	}
	// The trailing columns must be the unchanged input (skip connection).
	tail := y.Data().SliceCols(6, 10)
	if !tail.Equal(x.Data()) {
		t.Fatal("residual block must pass input through unchanged")
	}
}

func TestDiscBlockShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := NewDiscBlock(rng, 5, 7)
	x := ag.Const(tensor.Randn(rng, 4, 5, 0, 1))
	y := db.Forward(x, false)
	if r, c := y.Shape(); r != 4 || c != 7 {
		t.Fatalf("disc block output %dx%d want 4x7", r, c)
	}
}

func TestSequentialComposesAndCollectsParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := NewSequential(
		NewLinear(rng, 3, 8),
		ReLU{},
		NewLinear(rng, 8, 2),
	)
	if got := len(seq.Params()); got != 4 {
		t.Fatalf("params = %d want 4", got)
	}
	x := ag.Const(tensor.Randn(rng, 5, 3, 0, 1))
	if r, c := seq.Forward(x, true).Shape(); r != 5 || c != 2 {
		t.Fatalf("sequential output %dx%d", r, c)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||^2 with Adam.
	target := tensor.FromRows([][]float64{{1, -2, 3}})
	w := ag.Var(tensor.New(1, 3))
	opt := NewAdam(0.05)
	opt.WeightDecay = 0
	for i := 0; i < 500; i++ {
		loss := ag.SumAll(ag.Square(ag.Sub(w, ag.Const(target))))
		g := ag.Grad(loss, w)
		opt.Step([]*ag.Value{w}, g)
	}
	if !w.Data().AllClose(target, 1e-2) {
		t.Fatalf("Adam converged to %v want %v", w.Data(), target)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	target := tensor.FromRows([][]float64{{-4, 0.5}})
	w := ag.Var(tensor.New(1, 2))
	opt := NewSGD(0.05, 0.9)
	for i := 0; i < 300; i++ {
		loss := ag.SumAll(ag.Square(ag.Sub(w, ag.Const(target))))
		opt.Step([]*ag.Value{w}, ag.Grad(loss, w))
	}
	if !w.Data().AllClose(target, 1e-3) {
		t.Fatalf("SGD converged to %v want %v", w.Data(), target)
	}
}

func TestClipGradNorm(t *testing.T) {
	g1 := ag.Const(tensor.FromRows([][]float64{{3, 0}}))
	g2 := ag.Const(tensor.FromRows([][]float64{{0, 4}}))
	pre := ClipGradNorm([]*ag.Value{g1, g2}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v want 5", pre)
	}
	var total float64
	for _, g := range []*ag.Value{g1, g2} {
		n := g.Data().Norm()
		total += n * n
	}
	if math.Abs(math.Sqrt(total)-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v want 1", math.Sqrt(total))
	}
}

// encodeParams snapshots l's parameters and BatchNorm running statistics
// into a one-section gtvsnap image.
func encodeParams(l Layer) []byte {
	b := snap.NewBuilder(snap.KindCentralized)
	b.Section(1, func(e *snap.Enc) { EncodeParams(e, l) })
	return b.Bytes()
}

// restoreParams decodes an image written by encodeParams into l.
func restoreParams(image []byte, l Layer) error {
	s, err := snap.Decode(image)
	if err != nil {
		return err
	}
	d, err := s.Need(1, "params")
	if err != nil {
		return err
	}
	return RestoreParams(d, l)
}

// TestEncodeRestoreParamsRoundTrip trains a stack with a BatchNorm so its
// running statistics move away from their initial (0, 1), restores it into
// a fresh twin, and requires eval-mode outputs to be bit-equal. Eval mode
// reads the running statistics, which Params() does not cover, so this
// fails if the codec drops them.
func TestEncodeRestoreParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	build := func() *Sequential {
		return NewSequential(NewLinear(rng, 3, 4), NewBatchNorm(4), ReLU{}, NewLinear(rng, 4, 2))
	}
	src, dst := build(), build()
	for i := 0; i < 5; i++ {
		src.Forward(ag.Const(tensor.Randn(rng, 16, 3, 2, 3)), true)
	}
	if err := restoreParams(encodeParams(src), dst); err != nil {
		t.Fatalf("RestoreParams: %v", err)
	}
	x := ag.Const(tensor.Randn(rng, 5, 3, 0, 1))
	if !src.Forward(x, false).Data().Equal(dst.Forward(x, false).Data()) {
		t.Fatal("restored model's eval-mode output differs from the original")
	}
}

func TestRestoreParamsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	if err := restoreParams(encodeParams(NewLinear(rng, 3, 4)), NewLinear(rng, 3, 5)); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

// hiddenNorms forwards to a layer while hiding it from BatchNorms, so a
// stack can hold the same parameters as another with fewer running stats.
type hiddenNorms struct{ Layer }

// TestRestoreParamsBatchNormCountMismatch: the two stacks have identical
// parameter lists, so only the running-statistic count tells them apart,
// and it alone must reject the restore.
func TestRestoreParamsBatchNormCountMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	src := NewSequential(NewLinear(rng, 3, 4), NewBatchNorm(4))
	dst := NewSequential(NewLinear(rng, 3, 4), hiddenNorms{NewBatchNorm(4)})
	err := restoreParams(encodeParams(src), dst)
	if err == nil || !strings.Contains(err.Error(), "batch-norm stats") {
		t.Fatalf("want a batch-norm count mismatch, got %v", err)
	}
}

func TestCloneInto(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := NewLinear(rng, 2, 2)
	dst := NewLinear(rng, 2, 2)
	if err := CloneInto(dst, src); err != nil {
		t.Fatalf("CloneInto: %v", err)
	}
	if !dst.W.Data().Equal(src.W.Data()) || !dst.B.Data().Equal(src.B.Data()) {
		t.Fatal("CloneInto did not copy parameters")
	}
}

func TestCountParams(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewLinear(rng, 3, 4) // 3*4 weights + 4 bias
	if got := CountParams(l); got != 16 {
		t.Fatalf("CountParams = %d want 16", got)
	}
}

// TestXORWithMLP is an end-to-end sanity check that the full layer stack can
// learn a non-linear function.
func TestXORWithMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewSequential(
		NewLinear(rng, 2, 16),
		Tanh{},
		NewLinear(rng, 16, 1),
	)
	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := tensor.FromRows([][]float64{{0}, {1}, {1}, {0}})
	opt := NewAdam(0.02)
	opt.WeightDecay = 0
	for i := 0; i < 2000; i++ {
		pred := ag.Sigmoid(net.Forward(ag.Const(x), true))
		loss := ag.MeanAll(ag.Square(ag.Sub(pred, ag.Const(y))))
		opt.Step(net.Params(), Grads(loss, net))
	}
	pred := ag.Sigmoid(net.Forward(ag.Const(x), false)).Data()
	for i := 0; i < 4; i++ {
		want := y.At(i, 0)
		got := pred.At(i, 0)
		if math.Abs(got-want) > 0.2 {
			t.Fatalf("XOR row %d: predicted %v want %v", i, got, want)
		}
	}
}
