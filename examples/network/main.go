// Network example: the full GTV protocol over TCP on localhost. Two client
// processes are simulated by goroutines serving real gtvwire listeners
// (the pipelined binary frame protocol — see DESIGN.md "Wire protocol");
// the server dials them like remote parties and drives Algorithm 1 over
// the wire. Byte-for-byte, this is the traffic a two-machine deployment
// (cmd/gtv-server + cmd/gtv-client) exchanges.
package main

import (
	"fmt"
	"log"
	"net"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/vfl"
)

func main() {
	d, err := datasets.Generate("loan", datasets.Config{Rows: 400, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	assignment, err := core.EvenAssignment(d.Table.Cols(), 2)
	if err != nil {
		log.Fatal(err)
	}
	parts, err := d.Table.VerticalSplit(assignment, 2)
	if err != nil {
		log.Fatal(err)
	}

	// The clients share a shuffle secret; the server never sees it.
	const shuffleSecret = 0xBEEF
	coord := vfl.NewShuffleCoordinator(shuffleSecret)

	clients := make([]vfl.Client, len(parts))
	for i, part := range parts {
		local, err := vfl.NewLocalClient(part, coord, int64(i+1))
		if err != nil {
			log.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		//lint:ignore goroleak demo serve loop: it lives for the life of the example process and dies with it
		go func() {
			if err := vfl.ServeClientWire(lis, local); err != nil {
				log.Println("client server:", err)
			}
		}()
		proxy, err := vfl.DialWireClient("tcp", lis.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		//lint:ignore errdrop teardown at example exit, nothing to lose if the close fails
		defer func() { _ = proxy.Close() }()
		clients[i] = proxy
		fmt.Printf("client %d serving %d columns at %s\n", i, part.Cols(), lis.Addr())
	}

	cfg := vfl.Config{
		Plan:      vfl.Plan{DiscServer: 2, GenClient: 2},
		Rounds:    150,
		DiscSteps: 3,
		BatchSize: 64,
		NoiseDim:  24,
		BlockDim:  64,
		LR:        5e-4,
		Seed:      1,
	}
	server, err := vfl.NewServer(clients, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training %s over TCP, P_r=%v\n", cfg.Plan.Name(), server.Ratios())
	if err := server.Train(func(round int, dLoss, gLoss float64) {
		if (round+1)%50 == 0 {
			fmt.Printf("  round %d: critic %.3f generator %.3f\n", round+1, dLoss, gLoss)
		}
	}); err != nil {
		log.Fatal(err)
	}

	synth, err := server.Synthesize(200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized %d rows x %d columns over the network\n", synth.Rows(), synth.Cols())
	// The 8 B/element payload estimate and the measured framed bytes.
	fmt.Printf("communication: %s\n", server.CommStats())
}
