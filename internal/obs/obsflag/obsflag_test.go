package obsflag

import (
	"context"
	"flag"
	"io"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// stderrOf returns what fn writes to os.Stderr.
func stderrOf(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	old := os.Stderr
	os.Stderr = w
	fn()
	os.Stderr = old
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestWithSignalsSilentOnStop: a normal exit — the caller's stop, no
// signal — cancels the context and prints nothing.
func TestWithSignalsSilentOnStop(t *testing.T) {
	f := Register(flag.NewFlagSet("t", flag.ContinueOnError), "prog")
	out := stderrOf(t, func() {
		ctx, stop := f.WithSignals(context.Background())
		stop()
		if ctx.Err() != context.Canceled {
			t.Errorf("after stop, ctx.Err() = %v, want context.Canceled", ctx.Err())
		}
	})
	if out != "" {
		t.Errorf("stop without a signal wrote %q", out)
	}
}

// TestWithSignalsInterrupt: a delivered SIGINT cancels the context and
// prints the notice once, and the later stop adds nothing.
func TestWithSignalsInterrupt(t *testing.T) {
	f := Register(flag.NewFlagSet("t", flag.ContinueOnError), "prog")
	out := stderrOf(t, func() {
		ctx, stop := f.WithSignals(context.Background())
		defer stop()
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("SIGINT did not cancel the context")
		}
	})
	const notice = "prog: interrupt: finishing up"
	if n := strings.Count(out, notice); n != 1 {
		t.Errorf("notice printed %d times, want once; stderr: %q", n, out)
	}
}
