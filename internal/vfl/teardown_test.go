package vfl

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

// waitGoroutineBaseline polls until the process goroutine count drops back
// to at most base, failing after a generous grace period. Teardown is
// asynchronous (read loops observe closed connections on their next read),
// so an immediate count would race.
func waitGoroutineBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine count %d never returned to baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireClientNoRedialAfterClose: a closed WireClient must stay closed.
// Before the closed flag, any call after Close would transparently redial
// and resurrect the session — leaking a fresh demux goroutine and keeping
// a client alive that the caller had torn down.
func TestWireClientNoRedialAfterClose(t *testing.T) {
	ta, _ := twoClientTables(t, 40, 11)
	coord := NewShuffleCoordinator(5)
	la, err := NewLocalClient(ta, coord, 1)
	if err != nil {
		t.Fatalf("NewLocalClient: %v", err)
	}
	addr := serveWireListener(t, la)
	// Retries enabled on purpose: even a retrying policy must not redial a
	// closed client.
	proxy, err := DialWireClientPolicy("tcp", addr, CallPolicy{
		Timeout: 2 * time.Second, MaxAttempts: 3, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := proxy.Info(); err != nil {
		t.Fatalf("Info before close: %v", err)
	}
	if err := proxy.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := proxy.Info(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Info after Close should fail with net.ErrClosed, got: %v", err)
	}
	proxy.mu.Lock()
	resurrected := proxy.sess != nil
	proxy.mu.Unlock()
	if resurrected {
		t.Fatal("call after Close redialed a fresh session")
	}
}

// TestListenerCloseEndsConnGoroutines: closing the listener alone — the
// proxy stays open — must end every serve-side goroutine, and, because the
// server closes the accepted connections, the client-side demux loop too.
// This pins the connSet teardown in ServeClientWire; without it the
// per-connection read loops park on their sockets until the peer hangs up.
func TestListenerCloseEndsConnGoroutines(t *testing.T) {
	ta, _ := twoClientTables(t, 40, 13)
	coord := NewShuffleCoordinator(9)
	la, err := NewLocalClient(ta, coord, 1)
	if err != nil {
		t.Fatalf("NewLocalClient: %v", err)
	}
	t.Run("wire", func(t *testing.T) {
		base := runtime.NumGoroutine()
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		done := make(chan error, 1)
		go func() { done <- ServeClientWire(lis, la) }()
		proxy, err := DialWireClient("tcp", lis.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { proxy.Close() })
		if _, err := proxy.Info(); err != nil {
			t.Fatalf("Info: %v", err)
		}
		if err := lis.Close(); err != nil {
			t.Fatalf("close listener: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("serve loop: %v", err)
		}
		waitGoroutineBaseline(t, base)
	})
}

// TestReleaseUnblocksDelayedCalls: Release must cut injected delays short,
// not just dropped calls — otherwise a test tearing down sits out the full
// configured latency of every in-flight call (and a canceled round's
// abandoned attempt goroutines live on for the whole delay).
func TestReleaseUnblocksDelayedCalls(t *testing.T) {
	ta, _ := twoClientTables(t, 40, 17)
	coord := NewShuffleCoordinator(3)
	la, err := NewLocalClient(ta, coord, 1)
	if err != nil {
		t.Fatalf("NewLocalClient: %v", err)
	}
	f := NewFaultyTransport(la)
	f.SetDelay(time.Hour)
	start := time.Now()
	go func() {
		time.Sleep(20 * time.Millisecond)
		f.Release()
	}()
	if _, err := f.Info(); err != nil {
		t.Fatalf("Info through released delay: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Release did not cut the delay short: took %v", elapsed)
	}
}
