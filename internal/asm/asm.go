// Package asm implements a two-pass assembler (and disassembler) for
// the DISC1 instruction set.
//
// Source syntax, one statement per line:
//
//	; full-line or trailing comment
//	label:                       ; labels may share a line with code
//	.org  0x0100                 ; set the location counter / new section
//	.equ  LIMIT, 42              ; define a constant
//	.word 0x123456               ; emit a raw 24-bit word
//	.space 8                     ; emit zero words
//	LDI   R0, 5                  ; mnemonics are case-insensitive
//	ADD+  R1, R0, G2             ; trailing + / - is the AWP adjust (§3.5)
//	LD    R0, [G1+4]             ; register+offset addressing
//	LDM   R0, [counter]          ; absolute internal-memory addressing
//	BNE   loop                   ; branch conditions as B<cond>
//	LI    R0, 0xBEEF             ; pseudo: expands to LDHI + ORI (2 words)
//	SSTART 1, R0                 ; stream ops take a stream number
//	.macro name p1, p2           ; textual macros; \p1 substitutes, \@ is
//	.endm                        ;   unique per expansion (local labels)
//
// Numbers are decimal, 0x hex, 0b binary or 'c' character literals;
// operands may be symbol±offset expressions.
package asm

import (
	"fmt"
	"sort"
	"strings"

	"disc/internal/isa"
)

// Section is a contiguous run of assembled words at a base address.
type Section struct {
	Base  uint16
	Words []isa.Word
}

// Image is the result of assembling a source file.
type Image struct {
	Sections []Section
	Symbols  map[string]uint16

	// Labels holds only the code labels (Symbols additionally contains
	// .equ constants), so tools can tell addresses from plain values.
	Labels map[string]uint16
	// SourceLines maps each assembled word's address to the 1-based
	// line of the (macro-expanded) source that produced it.
	SourceLines map[uint16]int
	// Data marks addresses emitted by .word/.space directives — payload
	// words that are not meant to be executed.
	Data map[uint16]bool
}

// Size returns the total number of assembled words.
func (im *Image) Size() int {
	n := 0
	for _, s := range im.Sections {
		n += len(s.Words)
	}
	return n
}

// Symbol looks up a label or .equ constant.
func (im *Image) Symbol(name string) (uint16, bool) {
	v, ok := im.Symbols[name]
	return v, ok
}

// Error is an assembly diagnostic tied to a source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) *Error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// statement is one parsed source line after pass 1.
type statement struct {
	line    int
	addr    uint16
	mnem    string // upper-case, AWP suffix stripped
	sw      isa.SW
	args    []string
	isWord  bool // .word payload
	wordVal string
}

// Assemble runs the macro preprocessor and both passes over src.
// When macros are used, diagnostics refer to the expanded text.
func Assemble(src string) (*Image, error) {
	return AssembleWith(src)
}

// Hook post-processes a freshly assembled image; a non-nil error
// rejects the image. Static analyzers gate loads through this.
type Hook func(*Image) error

// AssembleWith assembles src and then runs each hook in order over the
// image, so callers can bolt on load-time checking (e.g. the
// internal/analysis linter) without the assembler importing it.
func AssembleWith(src string, hooks ...Hook) (*Image, error) {
	expanded, _, err := expandMacros(src)
	if err != nil {
		return nil, err
	}
	a := &assembler{symbols: map[string]uint16{}, labels: map[string]uint16{}}
	if err := a.pass1(expanded); err != nil {
		return nil, err
	}
	im, err := a.pass2()
	if err != nil {
		return nil, err
	}
	return checked(im, hooks)
}

// checked runs each hook over im in order; the first refusal rejects it.
func checked(im *Image, hooks []Hook) (*Image, error) {
	for _, h := range hooks {
		if err := h(im); err != nil {
			return nil, err
		}
	}
	return im, nil
}

type assembler struct {
	symbols map[string]uint16
	labels  map[string]uint16
	stmts   []statement
}

// pass1 assigns addresses, collects labels and .equ definitions.
func (a *assembler) pass1(src string) error {
	loc := uint32(0)
	for ln, raw := range strings.Split(src, "\n") {
		line := ln + 1
		text := stripComment(raw)
		// Peel labels (possibly several) off the front.
		for {
			text = strings.TrimSpace(text)
			i := strings.Index(text, ":")
			if i < 0 || !isIdent(strings.TrimSpace(text[:i])) {
				break
			}
			name := strings.TrimSpace(text[:i])
			if _, dup := a.symbols[name]; dup {
				return errf(line, "duplicate symbol %q", name)
			}
			a.symbols[name] = uint16(loc)
			a.labels[name] = uint16(loc)
			text = text[i+1:]
		}
		if text == "" {
			continue
		}
		mnem, rest := splitMnemonic(text)
		args := splitArgs(rest)
		switch mnem {
		case ".ORG":
			v, err := a.number(args, line, ".org")
			if err != nil {
				return err
			}
			loc = uint32(v)
			a.stmts = append(a.stmts, statement{line: line, addr: uint16(loc), mnem: ".ORG"})
			continue
		case ".EQU":
			if len(args) != 2 || !isIdent(args[0]) {
				return errf(line, ".equ wants NAME, value")
			}
			v, err := evalExpr(args[1], a.symbols)
			if err != nil {
				return errf(line, ".equ %s: %v", args[0], err)
			}
			if _, dup := a.symbols[args[0]]; dup {
				return errf(line, "duplicate symbol %q", args[0])
			}
			a.symbols[args[0]] = uint16(v)
			continue
		case ".SPACE":
			v, err := a.number(args, line, ".space")
			if err != nil {
				return err
			}
			for i := 0; i < int(v); i++ {
				a.stmts = append(a.stmts, statement{line: line, addr: uint16(loc), isWord: true, wordVal: "0"})
				loc++
			}
			continue
		case ".WORD":
			if len(args) == 0 {
				return errf(line, ".word wants at least one value")
			}
			for _, arg := range args {
				a.stmts = append(a.stmts, statement{line: line, addr: uint16(loc), isWord: true, wordVal: arg})
				loc++
			}
			continue
		}
		base, sw, err := splitSW(mnem)
		if err != nil {
			return errf(line, "%v", err)
		}
		size := 1
		if base == "LI" {
			size = 2
		}
		if loc+uint32(size) > 1<<16 {
			return errf(line, "location counter overflows program memory")
		}
		a.stmts = append(a.stmts, statement{line: line, addr: uint16(loc), mnem: base, sw: sw, args: args})
		loc += uint32(size)
	}
	return nil
}

func (a *assembler) number(args []string, line int, what string) (int64, error) {
	if len(args) != 1 {
		return 0, errf(line, "%s wants one value", what)
	}
	v, err := evalExpr(args[0], a.symbols)
	if err != nil {
		return 0, errf(line, "%s: %v", what, err)
	}
	return v, nil
}

// pass2 encodes every statement.
func (a *assembler) pass2() (*Image, error) {
	im := &Image{
		Symbols:     a.symbols,
		Labels:      a.labels,
		SourceLines: map[uint16]int{},
		Data:        map[uint16]bool{},
	}
	var cur *Section
	emit := func(addr uint16, w isa.Word, line int) {
		if cur == nil || int(addr) != int(cur.Base)+len(cur.Words) {
			im.Sections = append(im.Sections, Section{Base: addr})
			cur = &im.Sections[len(im.Sections)-1]
		}
		cur.Words = append(cur.Words, w)
		im.SourceLines[addr] = line
	}
	for _, st := range a.stmts {
		switch {
		case st.mnem == ".ORG":
			cur = nil
		case st.isWord:
			v, err := evalExpr(st.wordVal, a.symbols)
			if err != nil {
				return nil, errf(st.line, ".word: %v", err)
			}
			if v < 0 || v > int64(isa.MaxWord) {
				return nil, errf(st.line, ".word value %d outside 24 bits", v)
			}
			emit(st.addr, isa.Word(v), st.line)
			im.Data[st.addr] = true
		default:
			words, err := a.encodeStmt(st)
			if err != nil {
				return nil, err
			}
			for i, w := range words {
				emit(st.addr+uint16(i), w, st.line)
			}
		}
	}
	// Stable order for deterministic loading.
	sort.SliceStable(im.Sections, func(i, j int) bool { return im.Sections[i].Base < im.Sections[j].Base })
	return im, nil
}

// Disassemble renders words starting at base, one line per word.
func Disassemble(words []isa.Word, base uint16) []string {
	out := make([]string, len(words))
	for i, w := range words {
		in, err := isa.Decode(w)
		text := ""
		if err != nil {
			text = fmt.Sprintf(".word %#06x", uint32(w))
		} else {
			text = in.String()
		}
		out[i] = fmt.Sprintf("%04x: %s", base+uint16(i), text)
	}
	return out
}
