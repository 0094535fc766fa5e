// The golden test runs a non-race build of the experiments binary, so
// under -race it would repeat `go test`'s work byte for byte; `make
// test` runs it and `make race` leaves it out.

//go:build !race

package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsGolden pins every paper number this repository
// reports. Each registered experiment runs through the built binary
// (so the stochastic sweeps never run under the race detector) at
// -par 1 and -par 4, and both outputs must equal
// testdata/<name>.golden byte for byte. A change to a model or machine
// rule therefore fails the subtests named after the tables it moved.
// The docs subtests check that every EXPERIMENTS.md block tagged
// ```experiments <name> is quoted verbatim from that golden, and that
// every `experiments -only <name>` in the docs names an experiment.
//
// Regenerate after a deliberate change with
//
//	EXPERIMENTS_UPDATE=1 go test ./cmd/experiments -run TestExperimentsGolden
func TestExperimentsGolden(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	update := os.Getenv("EXPERIMENTS_UPDATE") != ""
	for _, par := range []string{"1", "4"} {
		t.Run("par"+par, func(t *testing.T) {
			for _, e := range experiments {
				t.Run(e.name, func(t *testing.T) {
					out, err := exec.Command(bin, "-only", e.name, "-par", par).CombinedOutput()
					if err != nil {
						t.Fatalf("%v\n%s", err, out)
					}
					path := filepath.Join("testdata", e.name+".golden")
					if update && par == "1" {
						if err := os.WriteFile(path, out, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("%v (regenerate with EXPERIMENTS_UPDATE=1)", err)
					}
					if got := string(out); got != string(want) {
						t.Errorf("-only %s -par %s differs from %s at %s\n"+
							"(regenerate with EXPERIMENTS_UPDATE=1 after a deliberate model or machine change)",
							e.name, par, path, firstDiff(string(want), got))
					}
				})
			}
		})
	}

	t.Run("docs/quotes", func(t *testing.T) {
		doc := readDoc(t, "EXPERIMENTS.md")
		blocks := regexp.MustCompile("(?ms)^```experiments (\\S+)\n(.*?)^```").FindAllStringSubmatch(doc, -1)
		if len(blocks) == 0 {
			t.Fatal("EXPERIMENTS.md quotes no tagged experiment output")
		}
		for _, b := range blocks {
			golden, err := os.ReadFile(filepath.Join("testdata", b[1]+".golden"))
			if err != nil {
				t.Errorf("block tagged %q: %v", b[1], err)
				continue
			}
			if !strings.Contains(string(golden), b[2]) {
				t.Errorf("EXPERIMENTS.md block tagged %q is not verbatim in its golden:\n%s", b[1], b[2])
			}
		}
	})

	t.Run("docs/only", func(t *testing.T) {
		known := map[string]bool{}
		for _, e := range experiments {
			known[e.name] = true
		}
		only := regexp.MustCompile("experiments\\s+-only\\s+([^\\s`]+)")
		for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
			for _, m := range only.FindAllStringSubmatch(readDoc(t, name), -1) {
				if !known[m[1]] {
					t.Errorf("%s: `experiments -only %s` names no registered experiment", name, m[1])
				}
			}
		}
	})
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of output)"
	}
	return fmt.Sprintf("line %d:\nwant %s\ngot  %s", i+1, line(w), line(g))
}
