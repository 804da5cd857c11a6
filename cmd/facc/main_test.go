package main

import (
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

func TestParseProfile(t *testing.T) {
	got, err := parseProfile("n=64,128,256;inverse=0,1")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int64{
		"n":       {64, 128, 256},
		"inverse": {0, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseProfile = %v, want %v", got, want)
	}
}

func TestParseProfileEmpty(t *testing.T) {
	got, err := parseProfile("")
	if err != nil || got != nil {
		t.Errorf("empty profile: %v, %v", got, err)
	}
}

func TestParseProfileWhitespace(t *testing.T) {
	got, err := parseProfile("n=64, 128")
	if err != nil {
		t.Fatal(err)
	}
	if len(got["n"]) != 2 || got["n"][1] != 128 {
		t.Errorf("got %v", got)
	}
}

func TestParseProfileErrors(t *testing.T) {
	for _, bad := range []string{"n", "n=abc", "n=1,x", "=1"} {
		if _, err := parseProfile(bad); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}
}

// TestFaccLinksNoHTTPServer: facc runs for milliseconds, so it has no
// -serve and must not link net/http (nor the TLS and pprof code that
// comes with it): loading them took nearly half of a trivial run.
func TestFaccLinksNoHTTPServer(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command on PATH: %v", err)
	}
	out, err := exec.Command(gobin, "list", "-deps", "facc/cmd/facc").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "net/http" {
			t.Fatal("facc/cmd/facc depends on net/http")
		}
	}
}
