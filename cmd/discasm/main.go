// Command discasm assembles DISC1 assembly source into a loadable hex
// image and/or a disassembly listing.
//
// Usage:
//
//	discasm [-o image.hex] [-l] [-lint] program.s
//
// The hex image format is line based: "@xxxx" sets the load address
// (hex, program words), and every following line is one 24-bit
// instruction word in hex. cmd/discsim loads the same format.
//
// -lint gates assembly through the internal/analysis pipeline (vector
// base 0x0200): programs with error-severity findings are refused.
// cmd/disclint reports the full finding list with positions.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/board"
)

func main() {
	out := flag.String("o", "", "write hex image to this file (default: stdout)")
	listing := flag.Bool("l", false, "print a disassembly listing instead of the image")
	lint := flag.Bool("lint", false, "refuse programs with error-severity analysis findings")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: discasm [-o image.hex] [-l] [-lint] program.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var hooks []asm.Hook
	if *lint {
		hooks = append(hooks, analysis.Gate(analysis.Options{VectorBase: board.Default().Config.VectorBase}))
	}
	im, err := asm.AssembleWith(string(src), hooks...)
	if err != nil {
		fatal(err)
	}
	var b strings.Builder
	if *listing {
		for _, sec := range im.Sections {
			for _, line := range asm.Disassemble(sec.Words, sec.Base) {
				fmt.Fprintln(&b, line)
			}
		}
	} else {
		b.WriteString(asm.EncodeHex(im))
	}
	if *out == "" {
		fmt.Print(b.String())
		return
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "discasm: %d words in %d sections -> %s\n", im.Size(), len(im.Sections), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "discasm:", err)
	os.Exit(1)
}
