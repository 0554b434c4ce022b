package vfl

import (
	"errors"
	"fmt"
	"math/rand"

	ag "repro/internal/autograd"
	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/gan"
	"repro/internal/gmm"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Phase distinguishes the two halves of a training round.
type Phase int

// Training phases.
const (
	// PhaseDiscriminator trains the critic; the generator path is detached.
	PhaseDiscriminator Phase = iota + 1
	// PhaseGenerator trains the generator through the frozen critic.
	PhaseGenerator
)

// ClientInfo is the metadata a client discloses during setup. None of it is
// row-level data: only schema-shape quantities the protocol needs.
type ClientInfo struct {
	// Features is the number of raw columns the client owns (drives P_r).
	Features int
	// EncodedWidth is the width of the client's encoded representation.
	EncodedWidth int
	// CVWidth is the width of the client's local conditional vector.
	CVWidth int
	// Rows is the number of aligned rows.
	Rows int
}

// Setup carries the architecture parameters the server assigns a client
// once the ratio vector is known.
type Setup struct {
	Plan Plan
	// SliceWidth is the width of the generator slice routed to this client.
	SliceWidth int
	// GenBlockWidth is this client's share of the generator block width.
	GenBlockWidth int
	// DiscWidth is the width of this client's discriminator logits (its
	// share of the discriminator block width).
	DiscWidth int
	// LR is the Adam learning rate.
	LR float64
	// Seed initializes the client's local weights and Gumbel noise.
	Seed int64
}

// Client is the protocol surface the GTV server drives. LocalClient
// implements it in-process; WireClient proxies it over the network.
//
// Concurrency contract: the server fans protocol steps out across
// clients, so distinct Client instances are driven from distinct
// goroutines — but the server serializes the calls it makes to any single
// client (a client never sees two of its own methods in flight at once).
// An implementation must therefore tolerate its methods being invoked
// from changing goroutines over time; the server's fan-out join provides
// the happens-before edge between consecutive calls. Any state shared
// BETWEEN client instances (e.g. the ShuffleCoordinator) must be
// immutable or internally synchronized. LocalClient meets the contract
// because all its mutable state is per-instance and the coordinator is
// immutable; WireClient meets it because its calls are sequence-numbered
// over one pipelined connection and its reconnect path is mutex-guarded.
// Every data-returning Client method is a privacy sink: its results cross
// to the server, so privflow verifies nothing source-tainted reaches them
// unsanitized.
type Client interface {
	// Info returns schema-shape metadata.
	//privacy:sink schema metadata visible to the server
	Info() (ClientInfo, error)
	// Configure builds the client's bottom models for the assigned widths.
	Configure(Setup) error
	// SampleCV draws a conditional-vector batch with matching row indices
	// from the client's local data (the client acts as contributor p).
	// synthesis selects raw-frequency category sampling (generation time)
	// instead of log-frequency sampling (training time).
	//privacy:sink conditional vectors and idx_p sent to the server
	SampleCV(batch int, synthesis bool) (*condvec.Batch, error)
	// SampleCVFixed draws a batch whose every CV selects the given category
	// of the client's categorical span spanIdx (conditional synthesis).
	//privacy:sink conditioned CV batch and idx_p sent to the server
	SampleCVFixed(batch, spanIdx, category int) (*condvec.Batch, error)
	// ForwardSynthetic routes a generator slice through G_i^b (+output
	// activations) and D_i^b, returning the intermediate critic logits.
	//privacy:sink critic logits returned to the server
	//shape: in(B,W) out(B,K)
	ForwardSynthetic(slice *tensor.Dense, phase Phase) (*tensor.Dense, error)
	// ForwardReal passes real rows through D_i^b. A nil idx means the full
	// local table (the paper's privacy-preserving path for clients that did
	// not contribute the CV; the server row-selects the logits).
	//privacy:sink real-branch critic logits returned to the server
	//shape: out(R,K)
	ForwardReal(idx []int) (*tensor.Dense, error)
	// BackwardDisc applies critic gradients (w.r.t. the logits returned by
	// the last ForwardSynthetic/ForwardReal) and updates D_i^b.
	//
	//shape: in(Bs,K) in(Br,K2)
	BackwardDisc(gradSynth, gradReal *tensor.Dense) error
	// BackwardGen applies generator gradients, updates G_i^b, and returns
	// the gradient with respect to the input slice so the server can update
	// G^t. conditioned marks this client as the round's CV contributor,
	// which adds the local conditioning cross-entropy.
	//privacy:sink boundary-slice gradient returned to the server
	//shape: in(B,K) out(B,W)
	BackwardGen(gradSynth *tensor.Dense, conditioned bool) (*tensor.Dense, error)
	// EndRound shuffles the local data with the round's shared seed.
	EndRound(round int) error
	// GenerateRows runs a synthesis-time generator pass and buffers the
	// activated rows locally.
	//
	//shape: in(B,W)
	GenerateRows(slice *tensor.Dense) error
	// Publish decodes and shuffles all buffered synthetic rows (with the
	// shared publication seed) and returns the client's synthetic columns.
	//privacy:sink synthetic columns published to the server
	Publish() (*encoding.Table, error)
	// Snapshot serializes the client's bottom-model trajectory state (a
	// KindClient gtvsnap image) for the server's checkpoint. The blob
	// carries weights, optimizer moments and RNG state only — never the
	// table, encoded matrix or CV sampler, which stay client-side and are
	// rebuilt deterministically on restore.
	//privacy:sink bottom-model checkpoint blob stored by the server
	Snapshot() ([]byte, error)
	// Restore reinstates a Snapshot blob into a freshly constructed,
	// already Configure'd client over the same data and seed.
	Restore(state []byte) error
}

// LocalClient is the in-process GTV client: it owns a vertical slice of the
// training table, its feature encoders, the bottom generator and
// discriminator, and their optimizer state.
type LocalClient struct {
	// table is the client's vertical slice of the real training data; the
	// server must never observe its values.
	//privacy:source client raw table
	table       *encoding.Table
	transformer *encoding.Transformer
	sampler     *condvec.Sampler
	// data serves the transformed real table (same rows, encoded columns)
	// from memory or from a block-cached gtvcol file; leaking what it
	// returns is equivalent to leaking the table.
	//privacy:source client encoded matrix
	data encoding.Backing
	// lastRealBuf is the pooled batch the last ForwardReal gathered; it
	// must stay alive until BackwardDisc recycles the critic graph built
	// on top of it, then goes back to the pool.
	lastRealBuf *tensor.Dense
	coord       *ShuffleCoordinator
	rng         *rng.Rand
	// modelRng seeds Configure's weight initialization and keeps feeding
	// the bottom discriminator's dropout masks during training; snapshots
	// capture its stream position alongside rng's.
	modelRng *rng.Rand

	setup   Setup
	gen     *nn.Sequential
	disc    *nn.Sequential
	genOpt  *nn.Adam
	discOpt *nn.Adam

	// Per-step state retained between forward and backward calls.
	lastSynthOut *ag.Value
	lastRealOut  *ag.Value
	lastRawGen   *ag.Value
	lastSliceVar *ag.Value
	lastDiscGen  *ag.Value // detached generator forward of the critic phase
	lastCV       *condvec.Batch

	synthBuf []*tensor.Dense
	pubCount int
	// shuffles counts applied end-of-round shuffles. Together with the
	// round-derived seeds it fully determines the current row order, which
	// is how a checkpoint can capture "shuffle state" without ever
	// serializing rows: restore replays the permutations locally.
	shuffles int
	// order maps logical row k — the row index the protocol speaks in —
	// to its physical row in table, data and the sampler's index, which
	// are never rewritten; pos is its inverse. Both are nil until the
	// first shuffle (identity). Derived from the shuffle secret, they are
	// as sensitive as the coordinator.
	//privacy:source shuffled row order
	order, pos []int32
	// physBuf is ForwardReal's reusable physical-index scratch.
	physBuf []int
}

var _ Client = (*LocalClient)(nil)

// NewLocalClient fits the client's feature encoders on its local table,
// holding the encoded matrix in memory. coord must be shared by all
// clients (and hidden from the server); seed drives encoder fitting and
// local randomness.
func NewLocalClient(table *encoding.Table, coord *ShuffleCoordinator, seed int64) (*LocalClient, error) {
	return NewLocalClientStored(table, coord, seed, encoding.Storage{})
}

// NewLocalClientStored is NewLocalClient with an optional gtvcol data
// plane: when st names a data directory, the client's encoded matrix
// lives in <dir>/<name>.enc.gtvcol and real batches are gathered through
// a bounded block cache (a matching cached file skips fitting and
// encoding). Encoding always draws from the dedicated EncodeSeed stream,
// so stored and in-memory clients train bit-identically from the same
// seed. The raw table stays wherever the caller put it; only the encoded
// matrix — the rows × encoded-width blow-up — moves out of core.
func NewLocalClientStored(table *encoding.Table, coord *ShuffleCoordinator, seed int64, st encoding.Storage) (*LocalClient, error) {
	if table.Rows() == 0 || table.Cols() == 0 {
		return nil, errors.New("vfl: client table is empty")
	}
	if coord == nil {
		return nil, errors.New("vfl: client requires a shuffle coordinator")
	}
	tr, data, err := encoding.OpenOrEncode(st, table, seed, gmm.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("vfl: encoding client table: %w", err)
	}
	sampler, err := condvec.NewSampler(table, tr)
	if err != nil {
		//lint:ignore errdrop the sampler error is the one worth reporting
		_ = data.Close()
		return nil, fmt.Errorf("vfl: building client CV sampler: %w", err)
	}
	return &LocalClient{
		table:       table,
		transformer: tr,
		sampler:     sampler,
		data:        data,
		coord:       coord,
		rng:         rng.New(seed),
	}, nil
}

// Close releases the encoded-data backing (file handles and block cache
// for stored clients; a no-op in memory).
func (c *LocalClient) Close() error {
	if c.lastRealBuf != nil {
		c.lastRealBuf.Release()
		c.lastRealBuf = nil
	}
	return c.data.Close()
}

// Info implements Client.
func (c *LocalClient) Info() (ClientInfo, error) {
	return ClientInfo{
		Features:     c.table.Cols(),
		EncodedWidth: c.transformer.Width(),
		CVWidth:      c.sampler.Width(),
		Rows:         c.table.Rows(),
	}, nil
}

// Configure implements Client.
func (c *LocalClient) Configure(s Setup) error {
	if err := s.Plan.Validate(); err != nil {
		return err
	}
	if s.SliceWidth <= 0 || s.DiscWidth <= 0 || s.GenBlockWidth <= 0 {
		return fmt.Errorf("vfl: invalid widths in setup %+v", s)
	}
	if s.LR <= 0 {
		return fmt.Errorf("vfl: invalid learning rate %v", s.LR)
	}
	c.setup = s
	// The layers retain this generator: dropout masks inside the bottom
	// discriminator keep drawing from it every round, so it lives on the
	// client (capturable) instead of being a constructor-local throwaway.
	c.modelRng = rng.New(s.Seed)
	initRng := c.modelRng.Rand

	// Bottom generator: n2 residual blocks then the mandatory output FC.
	c.gen = gan.NewGenerator(initRng, s.SliceWidth, s.GenBlockWidth, s.Plan.GenClient, c.transformer.Width())

	// Bottom discriminator: the mandatory input projection (Linear +
	// LeakyReLU) then n4 FN blocks, all at the client's width share.
	discLayers := []nn.Layer{
		nn.NewLinear(initRng, c.transformer.Width(), s.DiscWidth),
		nn.LeakyReLU{Slope: 0.2},
	}
	for i := 0; i < s.Plan.DiscClient; i++ {
		discLayers = append(discLayers, nn.NewDiscBlock(initRng, s.DiscWidth, s.DiscWidth))
	}
	c.disc = nn.NewSequential(discLayers...)

	c.genOpt = nn.NewAdam(s.LR)
	c.discOpt = nn.NewAdam(s.LR)
	return nil
}

func (c *LocalClient) configured() error {
	if c.gen == nil || c.disc == nil {
		return errors.New("vfl: client not configured")
	}
	return nil
}

// SampleCV implements Client.
func (c *LocalClient) SampleCV(batch int, synthesis bool) (*condvec.Batch, error) {
	var (
		b   *condvec.Batch
		err error
	)
	if synthesis {
		b, err = c.sampler.SampleSynthesis(c.rng.Rand, batch)
	} else {
		b, err = c.sampler.Sample(c.rng.Rand, batch)
	}
	if err != nil {
		return nil, err
	}
	c.lastCV = b
	// The contributor deliberately shares idx_p with the server; §3.1.5's
	// training-with-shuffling re-permutes rows every round so indices
	// cannot be joined across rounds to reconstruct data.
	//lint:ignore privflow idx_p disclosure is sanctioned by training-with-shuffling (§3.1.5)
	return b, nil
}

// SampleCVFixed implements Client.
func (c *LocalClient) SampleCVFixed(batch, spanIdx, category int) (*condvec.Batch, error) {
	b, err := c.sampler.SampleFixed(c.rng.Rand, batch, spanIdx, category)
	if err != nil {
		return nil, err
	}
	c.lastCV = b
	//lint:ignore privflow idx_p disclosure is sanctioned by training-with-shuffling (§3.1.5)
	return b, nil
}

// ResolveCondition maps a column name and category label of this client's
// table to the (span index, category index) SampleCVFixed expects.
func (c *LocalClient) ResolveCondition(column, categoryLabel string) (spanIdx, category int, err error) {
	return gan.ResolveCondition(c.table.Specs, c.sampler, column, categoryLabel)
}

// ForwardSynthetic implements Client.
//
//shape: in(B,W) out(B,K)
func (c *LocalClient) ForwardSynthetic(slice *tensor.Dense, phase Phase) (*tensor.Dense, error) {
	if err := c.configured(); err != nil {
		return nil, err
	}
	if slice.Cols() != c.setup.SliceWidth {
		return nil, fmt.Errorf("vfl: slice width %d, expected %d", slice.Cols(), c.setup.SliceWidth)
	}
	switch phase {
	case PhaseDiscriminator:
		// Critic training: the generator path is outside the graph. The
		// activated output is retained so BackwardDisc can recycle the
		// generator forward graph along with the critic's.
		raw := c.gen.Forward(ag.Const(slice), true)
		activated := gan.ActivateOutput(raw, c.transformer.Spans(), c.rng.Rand, false)
		c.lastSliceVar = nil
		c.lastRawGen = nil
		c.lastDiscGen = activated
		c.lastSynthOut = c.disc.Forward(activated.Detach(), true)
	case PhaseGenerator:
		// Generator training: keep the full graph, including the input
		// slice so the gradient can flow back to the server's G^t.
		c.lastSliceVar = ag.Var(slice)
		c.lastRawGen = c.gen.Forward(c.lastSliceVar, true)
		activated := gan.ActivateOutput(c.lastRawGen, c.transformer.Spans(), c.rng.Rand, false)
		c.lastSynthOut = c.disc.Forward(activated, true)
	default:
		return nil, fmt.Errorf("vfl: invalid phase %d", phase)
	}
	return c.lastSynthOut.Data(), nil
}

// ForwardReal implements Client.
//
//shape: out(R,K)
func (c *LocalClient) ForwardReal(idx []int) (*tensor.Dense, error) {
	if err := c.configured(); err != nil {
		return nil, err
	}
	if c.lastRealBuf != nil {
		// A prior forward's batch was never consumed by a backward pass
		// (the server re-drove the phase); recycle it before gathering.
		c.lastRealBuf.Release()
		c.lastRealBuf = nil
	}
	var rows *tensor.Dense
	if idx == nil {
		m, owned, err := c.data.Dense(c.pos)
		if err != nil {
			return nil, err
		}
		if owned {
			c.lastRealBuf = m
		}
		rows = m
	} else {
		phys, err := c.physicalRows(idx)
		if err != nil {
			return nil, err
		}
		m, err := c.data.GatherRows(phys)
		if err != nil {
			return nil, err
		}
		c.lastRealBuf = m
		rows = m
	}
	// The bottom discriminator's forward is the sanitizing boundary; only
	// its activations leave the client. Returning the local (rather than
	// re-reading the field) keeps the sanitized flow visible to privflow.
	out := c.disc.Forward(ag.Const(rows), true)
	c.lastRealOut = out
	return out.Data(), nil
}

// physicalRows bounds-checks the server's logical row indices and maps
// them through the row order into the reusable physBuf.
func (c *LocalClient) physicalRows(idx []int) ([]int, error) {
	n := c.table.Rows()
	phys := c.physBuf[:0]
	for _, i := range idx {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("vfl: real row %d out of range %d", i, n)
		}
		if c.order != nil {
			i = int(c.order[i])
		}
		phys = append(phys, i)
	}
	c.physBuf = phys
	return phys, nil
}

// BackwardDisc implements Client.
//
//shape: in(Bs,K) in(Br,K2)
func (c *LocalClient) BackwardDisc(gradSynth, gradReal *tensor.Dense) error {
	if err := c.configured(); err != nil {
		return err
	}
	if c.lastSynthOut == nil || c.lastRealOut == nil {
		return errors.New("vfl: BackwardDisc before forward passes")
	}
	// <output, grad> has exactly the requested gradients, so a single
	// backward pass updates D_i^b from both branches.
	proxy := ag.Add(
		ag.SumAll(ag.Mul(c.lastSynthOut, ag.Const(gradSynth))),
		ag.SumAll(ag.Mul(c.lastRealOut, ag.Const(gradReal))),
	)
	params := c.disc.Params()
	grads := ag.Grad(proxy, params...)
	c.discOpt.Step(params, grads)

	// Recycle the whole critic-phase graph, including the generator forward
	// retained by ForwardSynthetic. The Detach leaf inside proxy's graph
	// shields the activation buffer the two graphs share.
	var tape ag.Tape
	tape.Track(proxy, c.lastDiscGen)
	tape.Track(grads...)
	tape.Release()
	// The gathered real batch is a pooled buffer the backing handed us;
	// the tape shields Const leaves, so it is returned explicitly now that
	// the critic graph is gone.
	if c.lastRealBuf != nil {
		c.lastRealBuf.Release()
		c.lastRealBuf = nil
	}
	c.lastSynthOut, c.lastRealOut, c.lastDiscGen = nil, nil, nil
	return nil
}

// BackwardGen implements Client.
//
//shape: in(B,K) out(B,W)
func (c *LocalClient) BackwardGen(gradSynth *tensor.Dense, conditioned bool) (*tensor.Dense, error) {
	if err := c.configured(); err != nil {
		return nil, err
	}
	if c.lastSynthOut == nil || c.lastSliceVar == nil || c.lastRawGen == nil {
		return nil, errors.New("vfl: BackwardGen before a generator-phase forward")
	}
	proxy := ag.SumAll(ag.Mul(c.lastSynthOut, ag.Const(gradSynth)))
	if conditioned && c.lastCV != nil && c.sampler.Width() > 0 {
		cond := gan.ConditionLoss(c.lastRawGen, c.transformer.CategoricalSpans(), c.lastCV.Choices)
		proxy = ag.Add(proxy, cond)
	}
	params := c.gen.Params()
	targets := make([]*ag.Value, 0, len(params)+1)
	targets = append(targets, params...)
	targets = append(targets, c.lastSliceVar)
	grads := ag.Grad(proxy, targets...)
	c.genOpt.Step(params, grads[:len(params)])
	// The slice gradient outlives the release below (the server concatenates
	// it into the boundary gradient), so it is copied out of the graph.
	sliceGrad := grads[len(params)].Data().Clone()

	var tape ag.Tape
	tape.Track(proxy)
	tape.Track(grads...)
	tape.Release()
	c.lastSynthOut, c.lastSliceVar, c.lastRawGen = nil, nil, nil
	return sliceGrad, nil
}

// EndRound implements Client: training-with-shuffling with the shared seed.
func (c *LocalClient) EndRound(round int) error {
	if err := c.shuffle(c.coord.SeedForRound(round)); err != nil {
		return err
	}
	c.shuffles++
	return nil
}

// shuffle composes the seed's permutation into the row order: new logical
// row k is old logical row perm[k], exactly as if every copy of the data
// had been rewritten with ShuffleRows(perm). Only the int32 order, its
// inverse and the sampler's view of the inverse change. The two buffers
// trade roles each round — the stale inverse holds the permutation and
// then the new order, the old order's storage receives the new inverse —
// so a warm shuffle allocates no row state.
func (c *LocalClient) shuffle(seed int64) error {
	n := c.table.Rows()
	next, inv := c.pos, c.order
	if next == nil {
		next, inv = make([]int32, n), make([]int32, n)
	}
	permInto(rand.New(rand.NewSource(seed)), next)
	if c.order != nil {
		for k, p := range next {
			next[k] = c.order[p]
		}
	}
	for k, p := range next {
		inv[p] = int32(k)
	}
	c.order, c.pos = next, inv
	if err := c.sampler.MapRows(c.pos); err != nil {
		return fmt.Errorf("vfl: mapping CV sampler rows: %w", err)
	}
	return nil
}

// permInto fills buf with the permutation rand.Perm(len(buf)) would
// return from r, consuming the same Intn draws, without allocating.
func permInto(r *rand.Rand, buf []int32) {
	for i := range buf {
		j := r.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = int32(i)
	}
}

// GenerateRows implements Client.
//
//shape: in(B,W)
func (c *LocalClient) GenerateRows(slice *tensor.Dense) error {
	if err := c.configured(); err != nil {
		return err
	}
	raw := c.gen.Forward(ag.Const(slice), false)
	activated := gan.ActivateOutput(raw, c.transformer.Spans(), c.rng.Rand, true)
	c.synthBuf = append(c.synthBuf, activated.Data())
	return nil
}

// Publish implements Client.
func (c *LocalClient) Publish() (*encoding.Table, error) {
	if len(c.synthBuf) == 0 {
		return nil, errors.New("vfl: nothing to publish")
	}
	enc := tensor.ConcatRows(c.synthBuf...)
	c.synthBuf = nil
	decoded, err := c.transformer.Inverse(enc)
	if err != nil {
		return nil, fmt.Errorf("vfl: decoding synthetic rows: %w", err)
	}
	// Shuffle before publication with the shared seed so the server cannot
	// align published rows with the generator inputs it observed (§3.1.7).
	seed := c.coord.PublicationSeed(c.pubCount)
	c.pubCount++
	perm := rand.New(rand.NewSource(seed)).Perm(decoded.Rows())
	// The secret only orders the published rows (an order-only flow): the
	// rows themselves are synthetic, and publishing a permutation of them
	// reveals neither the secret nor any real row (§3.1.7).
	//lint:ignore privflow the shuffle secret determines row order only, never row values (§3.1.7)
	return decoded.ShuffleRows(perm), nil
}

// Table exposes the client's local table in its current (possibly
// shuffled) logical row order for evaluation code; after a shuffle each
// call materializes a fresh copy. Production deployments would not export
// this; the experiment harness uses it to compute real-vs-synthetic
// metrics.
func (c *LocalClient) Table() *encoding.Table {
	if c.order == nil {
		return c.table
	}
	perm := make([]int, len(c.order))
	for k, p := range c.order {
		perm[k] = int(p)
	}
	return c.table.ShuffleRows(perm)
}
