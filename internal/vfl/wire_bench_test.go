package vfl

import (
	"fmt"
	"net"
	"testing"

	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// echoClient is a protocol stub whose BackwardGen returns a matrix the
// size of its input's boundary gradient, isolating transport cost (encode,
// frame, TCP round-trip, decode) from GAN math. BackwardGen is the
// representative call: one matrix each way per round trip, no state
// retained between calls.
type echoClient struct{ out *tensor.Dense }

func (c *echoClient) Info() (ClientInfo, error) { return ClientInfo{}, nil }
func (c *echoClient) Configure(Setup) error     { return nil }
func (c *echoClient) SampleCV(int, bool) (*condvec.Batch, error) {
	return &condvec.Batch{}, nil
}
func (c *echoClient) SampleCVFixed(int, int, int) (*condvec.Batch, error) {
	return &condvec.Batch{}, nil
}
func (c *echoClient) ForwardSynthetic(*tensor.Dense, Phase) (*tensor.Dense, error) {
	return c.out.Clone(), nil
}
func (c *echoClient) ForwardReal([]int) (*tensor.Dense, error)        { return c.out.Clone(), nil }
func (c *echoClient) BackwardDisc(*tensor.Dense, *tensor.Dense) error { return nil }
func (c *echoClient) BackwardGen(*tensor.Dense, bool) (*tensor.Dense, error) {
	// Clone is pooled; the wire server releases it after encoding, so the
	// reply buffer recycles across iterations like a real client's would.
	return c.out.Clone(), nil
}
func (c *echoClient) EndRound(int) error               { return nil }
func (c *echoClient) GenerateRows(*tensor.Dense) error { return nil }
func (c *echoClient) Snapshot() ([]byte, error)        { return nil, nil }
func (c *echoClient) Restore([]byte) error             { return nil }
func (c *echoClient) Publish() (*encoding.Table, error) {
	return nil, fmt.Errorf("echo client has no table")
}

// wireBenchPayloads builds the payload shapes the codec picks distinct
// layouts for, at the paper's batch-500 scale. Every pattern is
// deterministic so runs are comparable.
func wireBenchPayloads(batch int) []struct {
	name    string
	payload *tensor.Dense
} {
	dense := func(width int) *tensor.Dense {
		m := tensor.New(batch, width)
		for i, data := 0, m.Data(); i < len(data); i++ {
			data[i] = float64(i%97) * 0.125
		}
		return m
	}
	// A conditional-vector batch: one-hot rows (plus a few all-zero ones).
	cv := tensor.New(batch, 64)
	for i := 0; i < batch; i++ {
		if i%17 != 0 {
			cv.Set(i, (i*7)%64, 1)
		}
	}
	// A hard-selection mask: 0/1 at ~10% density, several hits per row.
	mask := tensor.New(batch, 768)
	for i := 0; i < batch; i++ {
		for j := 0; j < 768; j++ {
			if (i*7+j)%10 == 0 {
				mask.Set(i, j, 1)
			}
		}
	}
	// A top-k sparsified gradient: ~5% arbitrary nonzero values.
	topk := tensor.New(batch, 768)
	for i := 0; i < batch; i++ {
		for j := 0; j < 768; j++ {
			if (i*13+j)%20 == 0 {
				topk.Set(i, j, float64(i+j)*0.37-50)
			}
		}
	}
	return []struct {
		name    string
		payload *tensor.Dense
	}{
		{fmt.Sprintf("batch=%d/width=%d", batch, 64), dense(64)},
		{fmt.Sprintf("batch=%d/width=%d", batch, 256), dense(256)},
		{fmt.Sprintf("batch=%d/width=%d", batch, 768), dense(768)},
		{fmt.Sprintf("batch=%d/cv-sparse", batch), cv},
		{fmt.Sprintf("batch=%d/mask", batch), mask},
		{fmt.Sprintf("batch=%d/topk", batch), topk},
	}
}

// BenchmarkWireRoundTrip measures one full protocol call (matrix out,
// matrix back) over gtvwire TCP loopback, in the f64 and the opt-in f32
// payload mode, across the payload classes the encoder picks different
// layouts for: dense activations at three boundary widths, one-hot CV
// batches, 0/1 masks (bitmap layout) and top-k sparsified gradients
// (index-list layout). The wire_bytes/op metric is the measured framed
// traffic per call, so BENCH_comm.json records the bytes on the wire next
// to latency.
func BenchmarkWireRoundTrip(b *testing.B) {
	const batch = 500
	for _, tc := range wireBenchPayloads(batch) {
		payload := tc.payload
		echo := &echoClient{out: payload.Clone()}

		serve := func(b *testing.B) *WireClient {
			b.Helper()
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { lis.Close() })
			go func() { _ = ServeClientWire(lis, echo) }()
			proxy, err := DialWireClient("tcp", lis.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { proxy.Close() })
			return proxy
		}

		run := func(proxy *WireClient) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(2 * 8 * int64(payload.Rows()) * int64(payload.Cols()))
				startBytes := proxy.WireBytes()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := proxy.BackwardGen(payload, false)
					if err != nil {
						b.Fatal(err)
					}
					out.Release()
				}
				b.ReportMetric(float64(proxy.WireBytes()-startBytes)/float64(b.N), "wire_bytes/op")
			}
		}

		b.Run(tc.name+"/binary", run(serve(b)))
		b.Run(tc.name+"/binary-f32", func(b *testing.B) {
			proxy := serve(b)
			proxy.SetFloat32(true)
			run(proxy)(b)
		})
	}
}
