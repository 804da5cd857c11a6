package facc_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"facc/internal/core"
	"facc/internal/eval"
)

const figuresGoldenPath = "testdata/figures_golden.txt"

// goldenFigures are the faccbench experiments whose output is
// deterministic, in the order the golden file holds them. Fig. 11 trains
// on random programs and Fig. 15 is a timing; neither is pinned.
var goldenFigures = []string{"table1", "fig8", "fig9", "fig10", "fig12", "fig13", "fig14", "fig16", "ablation"}

// TestFiguresGolden pins the paper's deterministic figures: for each
// experiment it renders exactly what `faccbench -experiment <name>`
// prints and compares it with testdata/figures_golden.txt. The
// interpreter's Counters feed the performance model, so a change to any
// operation count shows up here. Fig. 9 trains a classifier (most of the
// test's time) and is skipped under -short. Regenerate the golden only
// for an intended change to a figure, with -update.
func TestFiguresGolden(t *testing.T) {
	update := flag.Lookup("update").Value.(flag.Getter).Get().(bool)
	if testing.Short() && update {
		t.Fatal("-update needs the full run: fig9 is skipped under -short")
	}
	outcomes, err := eval.CompileAll(context.Background(), []string{"ffta", "powerquad", "fftw"}, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, name := range goldenFigures {
		fmt.Fprintf(&got, "==> faccbench -experiment %s <==\n", name)
		if name == "fig9" && testing.Short() {
			continue
		}
		if err := renderFigure(&got, name, outcomes); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintln(&got) // faccbench ends every experiment with a blank line
	}
	if update {
		if err := os.WriteFile(figuresGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(figuresGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotSections, want := figureSections(got.String()), figureSections(string(data))
	for _, name := range goldenFigures {
		if name == "fig9" && testing.Short() {
			continue
		}
		if text, ok := want[name]; !ok || gotSections[name] != text {
			t.Errorf("faccbench -experiment %s differs from %s:\n--- got\n%s--- want\n%s", name, figuresGoldenPath, gotSections[name], text)
		}
	}
}

// renderFigure writes one experiment as faccbench's run prints it, each
// in a fresh profiler, as each `faccbench -experiment` process has.
func renderFigure(w io.Writer, name string, outcomes []*eval.CompileOutcome) error {
	switch name {
	case "table1":
		eval.Table1(w)
	case "fig8":
		eval.Fig8(w, outcomes)
	case "fig9":
		clf, err := core.TrainClassifier(12, 1)
		if err != nil {
			return err
		}
		return eval.Fig9(w, outcomes, clf)
	case "fig10":
		return eval.Fig10(w, eval.NewProfiler())
	case "fig12":
		return eval.Fig12(w)
	case "fig13":
		return eval.Fig13(w, eval.NewProfiler())
	case "fig14":
		return eval.Fig14(w, eval.NewProfiler())
	case "fig16":
		eval.Fig16(w, outcomes)
	case "ablation":
		return eval.Ablation(w)
	}
	return nil
}

// figureSections splits golden text into each experiment's output.
func figureSections(text string) map[string]string {
	out := map[string]string{}
	for _, sec := range strings.Split(text, "==> faccbench -experiment ")[1:] {
		name, body, _ := strings.Cut(sec, " <==\n")
		out[name] = body
	}
	return out
}
