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

// TestEventsEnabledByEveryReport: each flag whose output folds the
// candidate-event stream, and -serve, which shows all of them, gets the
// one stream; with none set the pipeline runs uninstrumented.
func TestEventsEnabledByEveryReport(t *testing.T) {
	for _, args := range [][]string{
		{"-journal", "events.jsonl"}, {"-explain"}, {"-costs"}, {"-search-report"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f := RegisterSynth(fs, "prog")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if f.Events() == nil || f.Events() != f.Events() {
			t.Errorf("%v: no single event stream", args)
		}
	}
	f := RegisterSynth(flag.NewFlagSet("t", flag.ContinueOnError), "prog")
	if f.Events() != nil {
		t.Error("an event stream with no report requested")
	}
	f.Serve = "127.0.0.1:0"
	if f.Events() == nil {
		t.Error("-serve has no event stream for /journal")
	}
}
