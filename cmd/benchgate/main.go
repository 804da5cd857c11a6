// Command benchgate folds the bench gate's measurement into
// BENCH_layers.json and compares two such documents.
//
// Usage:
//
//	benchgate < measured.txt > BENCH_layers.json
//	benchgate BENCH_layers.json fresh.json
//
// With no arguments it reads a measurement — the table of
// `sh benchmark/run.sh --trace 1 --runs N`, then Go benchmark result
// lines — and writes the medians as a BENCH_layers.json document. With
// two it compares the second document against the first and exits 1 on a
// regression. scripts/bench_layers.sh and scripts/bench_gate.sh run it.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"facc/internal/eval"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	switch len(args) {
	case 0:
		l, err := eval.ParseLayers(os.Stdin)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(l)
	case 2:
		base, err := load(args[0])
		if err != nil {
			return err
		}
		fresh, err := load(args[1])
		if err != nil {
			return err
		}
		rep := eval.GateLayers(base, fresh)
		rep.WriteText(os.Stdout)
		if !rep.OK() {
			return fmt.Errorf("%d of %d checks regressed", rep.Failures, len(rep.Checks))
		}
		return nil
	default:
		return fmt.Errorf("usage: benchgate < measured.txt > BENCH_layers.json, or benchgate BENCH_layers.json fresh.json")
	}
}

func load(path string) (*eval.Layers, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l eval.Layers
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}
