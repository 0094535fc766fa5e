package minic

import (
	"fmt"
	"sort"
	"strings"

	"disc/internal/asmlib"
)

// Options tunes code generation.
type Options struct {
	// FrameBase is the first internal-memory address the compiler may
	// use for globals and function frames. Zero selects 0x300.
	FrameBase uint16
	// Entry is the program-memory origin. The emitted image starts
	// with `CALL main; HALT` at this address.
	Entry uint16
}

// Program is a compiled minic program.
type Program struct {
	Asm     string            // DISC1 assembly, ready for asm.Assemble
	Globals map[string]uint16 // internal-memory address of each global
	Frames  map[string]uint16 // base address of each function's frame
}

// maxEvalDepth bounds expression temporaries so that, together with a
// CALL's return-address push, everything stays inside the visible
// eight-register window.
const maxEvalDepth = 6

// Compile translates minic source into DISC1 assembly.
func Compile(src string, opts Options) (*Program, error) {
	if opts.FrameBase == 0 {
		opts.FrameBase = 0x300
	}
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	prog, err := parse(toks)
	if err != nil {
		return nil, err
	}
	g := &gen{
		opts:    opts,
		globals: map[string]uint16{},
		garrays: map[string]int{},
		frames:  map[string]*frame{},
		funcs:   map[string]*function{},
	}
	return g.run(prog)
}

// frame is a function's static activation record in internal memory.
type frame struct {
	base   uint16
	slots  map[string]uint16 // name -> absolute address
	arrays map[string]int    // name -> declared size (absent: scalar)
	order  []string
}

type gen struct {
	opts    Options
	out     strings.Builder
	globals map[string]uint16
	garrays map[string]int
	frames  map[string]*frame
	funcs   map[string]*function
	next    uint16 // memory allocation cursor
	label   int
	depth   int // current eval-stack depth
	needDiv bool

	// per-function state
	cur       *function
	loopEnds  []string
	loopConds []string
}

func (g *gen) emit(format string, args ...any) {
	fmt.Fprintf(&g.out, format+"\n", args...)
}

func (g *gen) newLabel(hint string) string {
	g.label++
	return fmt.Sprintf("mcl_%s_%d", hint, g.label)
}

func (g *gen) run(p *program) (*Program, error) {
	g.next = g.opts.FrameBase
	for _, d := range p.globals {
		if _, dup := g.globals[d.name]; dup {
			return nil, errf(0, "duplicate global %q", d.name)
		}
		g.globals[d.name] = g.next
		if d.size > 1 {
			g.garrays[d.name] = d.size
		}
		g.next += uint16(d.size)
	}
	var mainFn *function
	for _, fn := range p.funcs {
		if _, dup := g.funcs[fn.name]; dup {
			return nil, errf(fn.line, "duplicate function %q", fn.name)
		}
		g.funcs[fn.name] = fn
		if fn.name == "main" {
			mainFn = fn
		}
		fr := &frame{base: g.next, slots: map[string]uint16{}, arrays: map[string]int{}}
		decls := make([]decl, 0, len(fn.params)+len(fn.locals))
		for _, pn := range fn.params {
			decls = append(decls, decl{name: pn, size: 1})
		}
		decls = append(decls, fn.locals...)
		for _, d := range decls {
			if _, dup := fr.slots[d.name]; dup {
				return nil, errf(fn.line, "%s: duplicate variable %q", fn.name, d.name)
			}
			fr.slots[d.name] = g.next
			if d.size > 1 {
				fr.arrays[d.name] = d.size
			}
			fr.order = append(fr.order, d.name)
			g.next += uint16(d.size)
		}
		g.frames[fn.name] = fr
	}
	if mainFn != nil && len(mainFn.params) > 0 {
		return nil, errf(mainFn.line, "main takes no parameters")
	}
	if g.next >= 0x400 {
		return nil, errf(0, "globals and frames overflow internal memory (%d words needed)", g.next-g.opts.FrameBase)
	}
	if mainFn == nil {
		return nil, errf(0, "no main function")
	}
	if err := g.checkRecursion(p); err != nil {
		return nil, err
	}

	g.emit(".org %d", g.opts.Entry)
	g.emit("mc__start:")
	g.emit("    CALL mc_main")
	g.emit("    HALT")
	for _, fn := range p.funcs {
		if err := g.genFunc(fn); err != nil {
			return nil, err
		}
	}
	if g.needDiv {
		g.out.WriteString(asmlib.Div16)
	}
	frames := map[string]uint16{}
	//detlint:ignore map-to-map copy: every key lands in its own slot whatever the order
	for name, fr := range g.frames {
		frames[name] = fr.base
	}
	return &Program{Asm: g.out.String(), Globals: g.globals, Frames: frames}, nil
}

// checkRecursion rejects call cycles: frames are static, so functions
// are not reentrant.
func (g *gen) checkRecursion(p *program) error {
	edges := map[string][]string{}
	var walkE func(fn string, e expr)
	var walkS func(fn string, s stmt)
	walkE = func(fn string, e expr) {
		switch v := e.(type) {
		case *unaryExpr:
			walkE(fn, v.x)
		case *binExpr:
			walkE(fn, v.x)
			walkE(fn, v.y)
		case *memExpr:
			walkE(fn, v.addr)
		case *indexExpr:
			walkE(fn, v.idx)
		case *callExpr:
			edges[fn] = append(edges[fn], v.name)
			for _, a := range v.args {
				walkE(fn, a)
			}
		}
	}
	walkS = func(fn string, s stmt) {
		switch v := s.(type) {
		case *assignStmt:
			walkE(fn, v.expr)
		case *memStmt:
			walkE(fn, v.addr)
			walkE(fn, v.expr)
		case *ifStmt:
			walkE(fn, v.cond)
			for _, t := range v.then {
				walkS(fn, t)
			}
			for _, t := range v.alts {
				walkS(fn, t)
			}
		case *whileStmt:
			walkE(fn, v.cond)
			for _, t := range v.body {
				walkS(fn, t)
			}
		case *forStmt:
			if v.init != nil {
				walkS(fn, v.init)
			}
			if v.cond != nil {
				walkE(fn, v.cond)
			}
			if v.post != nil {
				walkS(fn, v.post)
			}
			for _, t := range v.body {
				walkS(fn, t)
			}
		case *indexStmt:
			walkE(fn, v.idx)
			walkE(fn, v.expr)
		case *returnStmt:
			if v.expr != nil {
				walkE(fn, v.expr)
			}
		case *exprStmt:
			walkE(fn, v.expr)
		}
	}
	for _, fn := range p.funcs {
		for _, s := range fn.body {
			walkS(fn.name, s)
		}
	}
	// DFS cycle detection over the call graph.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(n string, path []string) error
	visit = func(n string, path []string) error {
		color[n] = grey
		// Deterministic order for reproducible diagnostics.
		callees := append([]string{}, edges[n]...)
		sort.Strings(callees)
		for _, c := range callees {
			if _, ok := g.funcs[c]; !ok {
				return errf(g.funcs[n].line, "%s calls undefined function %q", n, c)
			}
			switch color[c] {
			case grey:
				return errf(g.funcs[n].line, "recursion not supported: %s -> %s (frames are static)", strings.Join(append(path, n), " -> "), c)
			case white:
				if err := visit(c, append(path, n)); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	// Roots in source order, so a program with several call cycles
	// always reports the same one.
	for _, fn := range p.funcs {
		if color[fn.name] == white {
			if err := visit(fn.name, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *gen) genFunc(fn *function) error {
	g.cur = fn
	g.depth = 0
	g.emit("")
	g.emit("mc_%s:", fn.name)
	g.emit("    NOP+               ; protect the return-address cell")
	for _, s := range fn.body {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	// Implicit return for fall-off-the-end.
	g.emit("    LDI  G0, 0")
	g.emit("    RET  1")
	return nil
}

// resolve finds a variable's address: locals shadow globals. isArray
// reports whether the name was declared with a size.
func (g *gen) resolve(name string, line int) (addr uint16, isArray bool, err error) {
	if fr := g.frames[g.cur.name]; fr != nil {
		if a, ok := fr.slots[name]; ok {
			_, arr := fr.arrays[name]
			return a, arr, nil
		}
	}
	if a, ok := g.globals[name]; ok {
		_, arr := g.garrays[name]
		return a, arr, nil
	}
	return 0, false, errf(line, "undefined variable %q", name)
}

func (g *gen) genStmt(s stmt) error {
	switch v := s.(type) {
	case *assignStmt:
		if err := g.genExpr(v.expr); err != nil {
			return err
		}
		addr, arr, err := g.resolve(v.name, v.line)
		if err != nil {
			return err
		}
		if arr {
			return errf(v.line, "array %q assigned without an index", v.name)
		}
		g.emit("    STM  R0, [%d]", addr)
	case *indexStmt:
		addr, arr, err := g.resolve(v.name, v.line)
		if err != nil {
			return err
		}
		if !arr {
			return errf(v.line, "%q is not an array", v.name)
		}
		if err := g.genExpr(v.idx); err != nil {
			return err
		}
		g.emit("    ADDI R0, %d", addr)
		g.push()
		if err := g.genExpr(v.expr); err != nil {
			return err
		}
		g.emit("    ST-  R0, [R1+0]")
		g.depth--
	case *forStmt:
		lCond, lPost, lEnd := g.newLabel("for"), g.newLabel("fpost"), g.newLabel("fend")
		if v.init != nil {
			if err := g.genStmt(v.init); err != nil {
				return err
			}
		}
		g.loopConds = append(g.loopConds, lPost) // continue runs the post step
		g.loopEnds = append(g.loopEnds, lEnd)
		g.emit("%s:", lCond)
		if v.cond != nil {
			if err := g.genExpr(v.cond); err != nil {
				return err
			}
			g.emit("    CMPI R0, 0")
			g.emit("    BEQ  %s", lEnd)
		}
		for _, t := range v.body {
			if err := g.genStmt(t); err != nil {
				return err
			}
		}
		g.emit("%s:", lPost)
		if v.post != nil {
			if err := g.genStmt(v.post); err != nil {
				return err
			}
		}
		g.emit("    JMP  %s", lCond)
		g.emit("%s:", lEnd)
		g.loopConds = g.loopConds[:len(g.loopConds)-1]
		g.loopEnds = g.loopEnds[:len(g.loopEnds)-1]
	case *memStmt:
		if err := g.genExpr(v.addr); err != nil {
			return err
		}
		g.push()
		if err := g.genExpr(v.expr); err != nil {
			return err
		}
		g.emit("    ST-  R0, [R1+0]")
		g.depth--
	case *ifStmt:
		lElse, lEnd := g.newLabel("else"), g.newLabel("endif")
		if err := g.genExpr(v.cond); err != nil {
			return err
		}
		g.emit("    CMPI R0, 0")
		g.emit("    BEQ  %s", lElse)
		for _, t := range v.then {
			if err := g.genStmt(t); err != nil {
				return err
			}
		}
		g.emit("    JMP  %s", lEnd)
		g.emit("%s:", lElse)
		for _, t := range v.alts {
			if err := g.genStmt(t); err != nil {
				return err
			}
		}
		g.emit("%s:", lEnd)
	case *whileStmt:
		lCond, lEnd := g.newLabel("while"), g.newLabel("wend")
		g.loopConds = append(g.loopConds, lCond)
		g.loopEnds = append(g.loopEnds, lEnd)
		g.emit("%s:", lCond)
		if err := g.genExpr(v.cond); err != nil {
			return err
		}
		g.emit("    CMPI R0, 0")
		g.emit("    BEQ  %s", lEnd)
		for _, t := range v.body {
			if err := g.genStmt(t); err != nil {
				return err
			}
		}
		g.emit("    JMP  %s", lCond)
		g.emit("%s:", lEnd)
		g.loopConds = g.loopConds[:len(g.loopConds)-1]
		g.loopEnds = g.loopEnds[:len(g.loopEnds)-1]
	case *returnStmt:
		if v.expr != nil {
			if err := g.genExpr(v.expr); err != nil {
				return err
			}
			g.emit("    MOV  G0, R0")
		} else {
			g.emit("    LDI  G0, 0")
		}
		g.emit("    RET  1")
	case *exprStmt:
		return g.genExpr(v.expr)
	case *breakStmt:
		if len(g.loopEnds) == 0 {
			return errf(v.line, "break outside a loop")
		}
		g.emit("    JMP  %s", g.loopEnds[len(g.loopEnds)-1])
	case *continueStmt:
		if len(g.loopConds) == 0 {
			return errf(v.line, "continue outside a loop")
		}
		g.emit("    JMP  %s", g.loopConds[len(g.loopConds)-1])
	}
	return nil
}

// push saves R0 onto the window eval stack: the window moves up one
// register, so the value becomes R1 and R0 is free (§3.5 in action).
func (g *gen) push() {
	g.emit("    NOP+               ; push")
	g.depth++
}

// genExpr emits code leaving the expression's value in R0 with the
// window back at its entry position.
func (g *gen) genExpr(e expr) error {
	if g.depth >= maxEvalDepth {
		return errf(exprLine(e), "expression too deep (more than %d live temporaries)", maxEvalDepth)
	}
	switch v := e.(type) {
	case *numExpr:
		if v.val <= 2047 {
			g.emit("    LDI  R0, %d", v.val)
		} else {
			g.emit("    LI   R0, %d", v.val)
		}
	case *varExpr:
		addr, arr, err := g.resolve(v.name, v.line)
		if err != nil {
			return err
		}
		if arr {
			return errf(v.line, "array %q used without an index", v.name)
		}
		g.emit("    LDM  R0, [%d]", addr)
	case *indexExpr:
		addr, arr, err := g.resolve(v.name, v.line)
		if err != nil {
			return err
		}
		if !arr {
			return errf(v.line, "%q is not an array", v.name)
		}
		if err := g.genExpr(v.idx); err != nil {
			return err
		}
		g.emit("    ADDI R0, %d", addr)
		g.emit("    LD   R0, [R0+0]")
	case *memExpr:
		if err := g.genExpr(v.addr); err != nil {
			return err
		}
		g.emit("    LD   R0, [R0+0]")
	case *unaryExpr:
		if err := g.genExpr(v.x); err != nil {
			return err
		}
		switch v.op {
		case "-":
			g.emit("    NEG  R0, R0")
		case "~":
			g.emit("    NOT  R0, R0")
		case "!":
			lT, lE := g.newLabel("nt"), g.newLabel("ne")
			g.emit("    CMPI R0, 0")
			g.emit("    BEQ  %s", lT)
			g.emit("    LDI  R0, 0")
			g.emit("    JMP  %s", lE)
			g.emit("%s:", lT)
			g.emit("    LDI  R0, 1")
			g.emit("%s:", lE)
		}
	case *binExpr:
		return g.genBin(v)
	case *callExpr:
		return g.genCall(v)
	}
	return nil
}

// binOpMnemonic maps simple arithmetic to the popping instruction form
// "OP- R1, R1, R0": compute into R1, then the window drop makes the
// result the new R0.
var binOpMnemonic = map[string]string{
	"+": "ADD", "-": "SUB", "&": "AND", "|": "OR", "^": "XOR",
	"<<": "SHL", ">>": "SHR", "*": "MUL",
}

// condForOp maps comparisons (x OP y, unsigned) to branch conditions.
var condForOp = map[string]string{
	"==": "EQ", "!=": "NE", "<": "CC", "<=": "LS", ">": "HI", ">=": "CS",
}

func (g *gen) genBin(v *binExpr) error {
	switch v.op {
	case "&&", "||":
		return g.genLogical(v)
	}
	if err := g.genExpr(v.x); err != nil {
		return err
	}
	g.push()
	if err := g.genExpr(v.y); err != nil {
		return err
	}
	defer func() { g.depth-- }()
	if mn, ok := binOpMnemonic[v.op]; ok {
		g.emit("    %s- R1, R1, R0", mn)
		return nil
	}
	if cc, ok := condForOp[v.op]; ok {
		lT, lE := g.newLabel("ct"), g.newLabel("ce")
		g.emit("    CMP- R1, R0")
		g.emit("    B%s  %s", cc, lT)
		g.emit("    LDI  R0, 0")
		g.emit("    JMP  %s", lE)
		g.emit("%s:", lT)
		g.emit("    LDI  R0, 1")
		g.emit("%s:", lE)
		return nil
	}
	switch v.op {
	case "/", "%":
		g.needDiv = true
		g.emit("    MOV  G1, R0")
		g.emit("    MOV- G0, R1")
		g.emit("    CALL div16")
		if v.op == "/" {
			g.emit("    MOV  R0, G2")
		} else {
			g.emit("    MOV  R0, G3")
		}
		return nil
	}
	return errf(v.line, "operator %q not implemented", v.op)
}

func (g *gen) genLogical(v *binExpr) error {
	lShort, lEnd := g.newLabel("sc"), g.newLabel("sce")
	bcc := "BEQ" // && shorts on false
	if v.op == "||" {
		bcc = "BNE"
	}
	if err := g.genExpr(v.x); err != nil {
		return err
	}
	g.emit("    CMPI R0, 0")
	g.emit("    %s  %s", bcc, lShort)
	if err := g.genExpr(v.y); err != nil {
		return err
	}
	g.emit("    CMPI R0, 0")
	g.emit("    %s  %s", bcc, lShort)
	if v.op == "&&" {
		g.emit("    LDI  R0, 1")
	} else {
		g.emit("    LDI  R0, 0")
	}
	g.emit("    JMP  %s", lEnd)
	g.emit("%s:", lShort)
	if v.op == "&&" {
		g.emit("    LDI  R0, 0")
	} else {
		g.emit("    LDI  R0, 1")
	}
	g.emit("%s:", lEnd)
	return nil
}

// genCall evaluates every argument onto the window stack first, then
// moves them into the callee's static frame — so an argument containing
// a call cannot clobber slots already stored.
func (g *gen) genCall(v *callExpr) error {
	fn, ok := g.funcs[v.name]
	if !ok {
		return errf(v.line, "call to undefined function %q", v.name)
	}
	if len(v.args) != len(fn.params) {
		return errf(v.line, "%s takes %d arguments, got %d", v.name, len(fn.params), len(v.args))
	}
	fr := g.frames[v.name]
	for i, a := range v.args {
		if err := g.genExpr(a); err != nil {
			return err
		}
		if i < len(v.args)-1 {
			g.push()
		}
	}
	// Args sit at R(n-1)..R0, last argument on top; drain in reverse.
	for i := len(v.args) - 1; i >= 0; i-- {
		slot := fr.slots[fn.params[i]]
		if i > 0 {
			g.emit("    STM- R0, [%d]", slot)
			g.depth--
		} else {
			g.emit("    STM  R0, [%d]", slot)
		}
	}
	g.emit("    CALL mc_%s", v.name)
	g.emit("    MOV  R0, G0")
	return nil
}

func exprLine(e expr) int {
	switch v := e.(type) {
	case *numExpr:
		return v.line
	case *varExpr:
		return v.line
	case *memExpr:
		return v.line
	case *unaryExpr:
		return v.line
	case *binExpr:
		return v.line
	case *callExpr:
		return v.line
	case *indexExpr:
		return v.line
	}
	return 0
}
