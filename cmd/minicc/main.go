// Command minicc compiles minic source (a small structured language —
// see internal/minic) to DISC1 assembly, and optionally runs it.
//
// Usage:
//
//	minicc [-run] [-cycles n] [-o out.s] program.mc
//
// With -run, the program is assembled and executed on the machine
// simulator and the final value of every global is printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"disc/internal/asm"
	"disc/internal/core"
	"disc/internal/minic"
)

func main() {
	run := flag.Bool("run", false, "assemble and execute, printing globals")
	cycles := flag.Int("cycles", 1_000_000, "execution budget with -run")
	out := flag.String("o", "", "write assembly to this file (default: stdout)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: minicc [-run] [-o out.s] program.mc")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := minic.Compile(string(src), minic.Options{})
	if err != nil {
		fatal(err)
	}
	if !*run {
		if *out == "" {
			fmt.Print(prog.Asm)
			return
		}
		if err := os.WriteFile(*out, []byte(prog.Asm), 0o644); err != nil {
			fatal(err)
		}
		return
	}
	im, err := asm.Assemble(prog.Asm)
	if err != nil {
		fatal(fmt.Errorf("internal error: compiler output does not assemble: %w", err))
	}
	m := core.MustNew(core.Config{Streams: 1})
	if err := im.Load(m, map[int]string{0: "0"}); err != nil {
		fatal(err)
	}
	n, idle := m.RunUntilIdle(*cycles)
	if !idle {
		fatal(fmt.Errorf("program did not halt within %d cycles", *cycles))
	}
	names := make([]string, 0, len(prog.Globals))
	for name := range prog.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-12s = %d\n", name, m.Internal().Read(prog.Globals[name]))
	}
	fmt.Printf("(%d cycles, %d instructions)\n", n, m.Stats().Retired)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minicc:", err)
	os.Exit(1)
}
