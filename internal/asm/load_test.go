package asm

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"disc/internal/isa"
)

// recorder is a Target that logs what an image load does to it.
type recorder struct {
	loads  []uint16
	starts [][2]int
}

func (r *recorder) LoadProgram(base uint16, _ []isa.Word) error {
	r.loads = append(r.loads, base)
	return nil
}

func (r *recorder) StartStream(stream int, pc uint16) error {
	r.starts = append(r.starts, [2]int{stream, int(pc)})
	return nil
}

// TestLoadStartsInStreamOrder proves Load installs every section and
// then starts the named streams in stream order, each at its label or
// literal, and that an unknown name is an error.
func TestLoadStartsInStreamOrder(t *testing.T) {
	im, err := Assemble(".org 0x10\na: NOP\n.org 0x40\nb: NOP\n")
	if err != nil {
		t.Fatal(err)
	}
	var r recorder
	if err := im.Load(&r, map[int]string{3: "b", 0: "a", 1: "0x20", 2: "7"}); err != nil {
		t.Fatal(err)
	}
	if want := []uint16{0x10, 0x40}; !reflect.DeepEqual(r.loads, want) {
		t.Errorf("sections loaded at %#x, want %#x", r.loads, want)
	}
	if want := [][2]int{{0, 0x10}, {1, 0x20}, {2, 7}, {3, 0x40}}; !reflect.DeepEqual(r.starts, want) {
		t.Errorf("streams started %v, want %v", r.starts, want)
	}
	if err := im.Load(&recorder{}, map[int]string{0: "missing"}); err == nil {
		t.Error("unknown start label accepted")
	}
}

// TestReadFile proves both file forms read to the same sections and
// that a hook gates either.
func TestReadFile(t *testing.T) {
	dir := t.TempDir()
	src, err := Assemble("main: LDI R0, 5\n    HALT\n")
	if err != nil {
		t.Fatal(err)
	}
	s := filepath.Join(dir, "p.s")
	hex := filepath.Join(dir, "p.hex")
	if err := os.WriteFile(s, []byte("main: LDI R0, 5\n    HALT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hex, []byte(EncodeHex(src)), 0o644); err != nil {
		t.Fatal(err)
	}
	refuse := errors.New("refused")
	for _, path := range []string{s, hex} {
		im, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(im.Sections, src.Sections) {
			t.Errorf("%s: sections %v, want %v", path, im.Sections, src.Sections)
		}
		if _, err := ReadFile(path, func(*Image) error { return refuse }); !errors.Is(err, refuse) {
			t.Errorf("%s: hook verdict %v, want %v", path, err, refuse)
		}
	}
}
