package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestTableApplies checks, without running any mutant, that every
// entry still names text occurring exactly once in its file and a valid
// test pattern, so a refactor that moves the code fails `make test`
// rather than only the mutation gate.
func TestTableApplies(t *testing.T) {
	for _, mu := range table {
		src, err := os.ReadFile(filepath.Join("..", "..", mu.file))
		if err != nil {
			t.Errorf("%s: %v", mu.name, err)
			continue
		}
		if n := bytes.Count(src, []byte(mu.old)); n != 1 {
			t.Errorf("%s: text occurs %d times in %s, want 1", mu.name, n, mu.file)
		}
		if mu.old == mu.new {
			t.Errorf("%s: replacement equals the original", mu.name)
		}
		if _, err := regexp.Compile(mu.run); err != nil {
			t.Errorf("%s: -run pattern: %v", mu.name, err)
		}
	}
}
