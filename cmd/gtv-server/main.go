// Command gtv-server runs the GTV trusted-third-party server: it dials the
// client processes, drives Algorithm 1 over TCP with the gtvwire binary
// protocol, and writes the joint synthetic dataset.
//
// Usage:
//
//	gtv-server -clients 127.0.0.1:7001,127.0.0.1:7002 -plan D2_0G2_0 -rounds 300 -synth-out synth.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/encoding"
	"repro/internal/vfl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gtv-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gtv-server", flag.ContinueOnError)
	var (
		clientsArg = fs.String("clients", "127.0.0.1:7001,127.0.0.1:7002", "comma-separated client addresses")
		planArg    = fs.String("plan", "D2_0G2_0", "partition plan")
		rounds     = fs.Int("rounds", 300, "training rounds")
		discSteps  = fs.Int("disc-steps", 3, "critic steps per round")
		batch      = fs.Int("batch", 64, "batch size")
		block      = fs.Int("block", 64, "block width")
		noise      = fs.Int("noise", 32, "noise width")
		lr         = fs.Float64("lr", 5e-4, "learning rate")
		pac        = fs.Int("pac", 1, "PacGAN packing degree (batch must divide)")
		dpNoise    = fs.Float64("dp-noise", 0, "Gaussian DP noise std on received logits")
		seed       = fs.Int64("seed", 1, "server random seed")
		parallel   = fs.Int("parallel-clients", 0, "max clients driven concurrently per round (0 = all, 1 = sequential; results are identical)")
		callTO     = fs.Duration("call-timeout", 30*time.Second, "per-call deadline (0 = wait forever)")
		callTries  = fs.Int("call-retries", 2, "retries per call on transient transport errors")
		callWait   = fs.Duration("call-backoff", 50*time.Millisecond, "initial backoff between call retries (doubles per retry)")
		wireF32    = fs.Bool("wire-f32", false, "send activations/gradients as float32 on the wire")
		wireTopK   = fs.Float64("wire-topk", 0, "keep only this fraction of each outbound gradient (top-k with error feedback; lossy, 0 = off)")
		wireDelta  = fs.Bool("wire-delta", false, "fetch client checkpoints as deltas against the previous fetch (lossless)")
		faithful   = fs.Bool("faithful-real-pass", false, "use the paper's full-local-pass index privacy mode")
		synthRows  = fs.Int("synth-rows", 500, "synthetic rows to generate after training")
		synthOut   = fs.String("synth-out", "synthetic.csv", "output CSV path")
		every      = fs.Int("log-every", 25, "print losses every N rounds")
		ckptDir    = fs.String("checkpoint-dir", "", "write atomic gtvsnap checkpoints (server + client blobs) into this directory")
		ckptEvery  = fs.Int("checkpoint-every", 1, "rounds between checkpoints when -checkpoint-dir is set")
		resume     = fs.Bool("resume", false, "restore the newest checkpoint in -checkpoint-dir before training")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	plan, err := vfl.ParsePlan(*planArg)
	if err != nil {
		return err
	}

	policy := vfl.CallPolicy{
		Timeout:     *callTO,
		MaxAttempts: 1 + *callTries,
		Backoff:     *callWait,
	}
	addrs := strings.Split(*clientsArg, ",")
	clients := make([]vfl.Client, len(addrs))
	for i, addr := range addrs {
		addr = strings.TrimSpace(addr)
		proxy, err := vfl.DialWireClientPolicy("tcp", addr, policy)
		if err != nil {
			return err
		}
		proxy.SetFloat32(*wireF32)
		proxy.SetDelta(*wireDelta)
		//lint:ignore errdrop teardown of a finished training connection, nothing left to lose
		defer func() { _ = proxy.Close() }()
		clients[i] = proxy
		fmt.Printf("connected to client %d at %s\n", i, addr)
	}

	cfg := vfl.Config{
		Plan:             plan,
		Rounds:           *rounds,
		DiscSteps:        *discSteps,
		BatchSize:        *batch,
		NoiseDim:         *noise,
		BlockDim:         *block,
		LR:               *lr,
		Pac:              *pac,
		DPLogitNoise:     *dpNoise,
		Seed:             *seed,
		FaithfulRealPass: *faithful,
		Parallelism:      *parallel,
		GradTopK:         *wireTopK,
	}
	server, err := vfl.NewServer(clients, cfg)
	if err != nil {
		return err
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
		if *resume {
			r, ok, err := server.RestoreLatestCheckpoint(*ckptDir)
			if err != nil {
				return err
			}
			if ok {
				fmt.Printf("resumed from checkpoint at round %d\n", r)
			}
		}
	}
	interval := *ckptEvery
	if interval <= 0 {
		interval = 1
	}
	var ckptErr error
	fmt.Printf("training %s for %d rounds, P_r=%v\n", plan.Name(), *rounds, server.Ratios())
	err = server.Train(func(round int, dLoss, gLoss float64) {
		if *every > 0 && (round+1)%*every == 0 {
			fmt.Printf("round %4d  critic %.4f  generator %.4f\n", round+1, dLoss, gLoss)
		}
		if *ckptDir != "" && ckptErr == nil && (round+1)%interval == 0 {
			_, ckptErr = server.SaveCheckpoint(*ckptDir)
		}
	})
	if err != nil {
		return err
	}
	if ckptErr != nil {
		return fmt.Errorf("checkpointing: %w", ckptErr)
	}
	if *ckptDir != "" && server.Rounds()%interval != 0 {
		if _, err := server.SaveCheckpoint(*ckptDir); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
	}

	// Estimated payload bytes next to the measured framed bytes.
	fmt.Printf("communication: %s\n", server.CommStats())

	synth, err := server.Synthesize(*synthRows)
	if err != nil {
		return err
	}
	f, err := os.Create(*synthOut)
	if err != nil {
		return fmt.Errorf("creating %s: %w", *synthOut, err)
	}
	if err := encoding.WriteCSV(f, synth); err != nil {
		_ = f.Close() //lint:ignore errdrop the write error is the one worth reporting
		return err
	}
	// A failed Close on a written file can mean the synthetic data never
	// reached disk, so it is propagated rather than deferred away.
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", *synthOut, err)
	}
	fmt.Printf("wrote %d synthetic rows (%d columns) to %s\n", synth.Rows(), synth.Cols(), *synthOut)
	return nil
}
