package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestSmokeRun drives one tiny saturation sweep plus one open-loop
// overload point end to end against in-process pbsd daemons, through
// the TCP protocol on loopback ports.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs wall-clock measurements")
	}
	var out, errb bytes.Buffer
	args := []string{"-sizes", "0,10", "-clients", "1", "-dur", "50ms", "-bound", "10",
		"-rates", "50", "-r", "1", "-qsize", "20", "-inflight", "8"}
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	for _, want := range []string{
		"Figure 5: daemon throughput vs queue size",
		"Section 4.1 bound: at a 10-deep queue",
		"overload response (open-loop rate × redundancy, queue preloaded to 20)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestSmokeRunDirectAPI covers the -tcp=false path (direct API calls,
// no protocol layer), with the open-loop sweep skipped.
func TestSmokeRunDirectAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs wall-clock measurements")
	}
	var out, errb bytes.Buffer
	args := []string{"-sizes", "0", "-clients", "1", "-dur", "50ms", "-tcp=false", "-rates", ""}
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 5") {
		t.Errorf("output missing table:\n%s", out.String())
	}
	if strings.Contains(out.String(), "overload response") {
		t.Errorf("-rates \"\" must skip the open-loop sweep:\n%s", out.String())
	}
}

// An interrupt (canceled context, as SIGINT delivers in main) must
// drain in-flight work, flush the partial results, and exit 0.
func TestInterruptFlushesPartialResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs wall-clock measurements")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	var out, errb bytes.Buffer
	// Four closed-loop points at 200 ms each guarantee the cancel (at
	// 300 ms) lands before the sweep finishes; the point in flight
	// drains and keeps its partial reading, the rest are skipped, and
	// the open-loop phase never starts.
	args := []string{"-sizes", "0,10,20,30", "-clients", "1", "-dur", "200ms",
		"-rates", "10", "-r", "1", "-qsize", "10", "-inflight", "4"}
	done := make(chan int, 1)
	go func() { done <- run(ctx, args, &out, &errb) }()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after interrupt, stderr:\n%s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("interrupted run did not drain and exit")
	}
	if !strings.Contains(out.String(), "interrupted — partial results above") {
		t.Errorf("output missing interruption notice:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Figure 5") {
		t.Errorf("partial results not flushed:\n%s", out.String())
	}
	if strings.Contains(out.String(), "overload response") {
		t.Errorf("open-loop phase ran after interrupt:\n%s", out.String())
	}
}

func TestBadSizeExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-sizes", "10,frog"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `bad size "frog"`) {
		t.Errorf("stderr missing diagnosis:\n%s", errb.String())
	}
}

func TestBadRedundancyExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-r", "0"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "bad") {
		t.Errorf("stderr missing diagnosis:\n%s", errb.String())
	}
}

func TestBadFlagExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("usage error wrote to stdout:\n%s", out.String())
	}
}

func TestPositionalArgsExitUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"extra"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unexpected arguments") {
		t.Errorf("stderr missing diagnosis:\n%s", errb.String())
	}
}
