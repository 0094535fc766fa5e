// Command disclint statically analyzes assembled DISC1 programs: it
// rebuilds the control-flow graph and runs the internal/analysis pass
// pipeline — decode legality, reachability, §3.5 stack-window depth
// dataflow, use-before-def, §3.6.3 interrupt-vector checks, the
// abstract-interpretation value pass (branch fates, provably-unmapped
// bus addresses, constant-fold hints) and the static-livelock pass.
//
// Usage:
//
//	disclint [flags] program.s|program.hex
//
//	-entry list     comma list of labels/addresses analyzed as strict
//	                stream entries (default: "main" when that label
//	                exists; other labels are analyzed leniently)
//	-vb addr        interrupt vector base (default 0x0200, as discsim)
//	-streams n      streams sizing the vector table (default 4)
//	-novec          skip the interrupt-vector pass
//	-depth n        physical window depth for the spill advisory
//	                (0: the machine default, negative: off)
//	-bus list       bus device map as base:size:wait,... entries; arms
//	                the provably-unmapped check and the stall bounds
//	-bus-timeout n  bus bounded-wait budget in cycles (0: unbounded)
//	-hints          emit note-severity constant-fold hints
//	-passes list    report only these passes (comma list)
//	-q              print only error-severity findings
//	-Werror         exit 1 on warnings too, not just errors
//	-json           machine-readable report on stdout (schema disclint/2)
//	-facts-out f    write the block-summary facts (analysis.Summary,
//	                schema disc-absint/1) to f as JSON
//
// Findings print one per line as
//
//	file:line: severity: [pass] message (at addr label)
//
// Exit status contract (pinned by cmd/disclint tests): 0 when the
// program is clean, 1 when error findings are present (or warnings
// under -Werror) and when the program fails to load, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/board"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is one finding in the -json report.
type jsonFinding struct {
	Pass     string `json:"pass"`
	Severity string `json:"severity"`
	Addr     uint16 `json:"addr"`
	Line     int    `json:"line,omitempty"`
	Label    string `json:"label,omitempty"`
	Msg      string `json:"msg"`
}

// jsonReport is the -json output document. The schema string versions
// the format; a golden-file test pins it byte for byte.
type jsonReport struct {
	Schema   string        `json:"schema"`
	File     string        `json:"file"`
	Errors   int           `json:"errors"`
	Warnings int           `json:"warnings"`
	Notes    int           `json:"notes"`
	Findings []jsonFinding `json:"findings"`
}

// reportSchema versions the -json document layout.
const reportSchema = "disclint/2"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("disclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	entries := fs.String("entry", "", "labels/addresses treated as strict stream entries")
	def := board.Default()
	vb := fs.Uint("vb", uint(def.Config.VectorBase), "interrupt vector base")
	streams := fs.Int("streams", def.Config.Streams, "streams sizing the vector table")
	novec := fs.Bool("novec", false, "skip the interrupt-vector pass")
	depth := fs.Int("depth", 0, "physical window depth for the spill advisory (0: default, <0: off)")
	busMap := fs.String("bus", "", "bus device map, base:size:wait comma list")
	busTimeout := fs.Int("bus-timeout", 0, "bus bounded-wait budget in cycles (0: unbounded)")
	hints := fs.Bool("hints", false, "emit note-severity constant-fold hints")
	passes := fs.String("passes", "", "report only these passes (comma list)")
	quiet := fs.Bool("q", false, "print only error-severity findings")
	werror := fs.Bool("Werror", false, "exit 1 on warnings too")
	asJSON := fs.Bool("json", false, "machine-readable report on stdout")
	factsOut := fs.String("facts-out", "", "write block-summary facts (JSON) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: disclint [flags] program.s|program.hex")
		fs.PrintDefaults()
		return 2
	}
	keep, err := parsePasses(*passes)
	if err != nil {
		fmt.Fprintln(stderr, "disclint:", err)
		return 2
	}
	path := fs.Arg(0)
	im, err := asm.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "disclint:", err)
		return 1
	}

	opts := analysis.Options{
		VectorBase:  uint16(*vb),
		Streams:     *streams,
		NoVectors:   *novec,
		WindowDepth: *depth,
		BusTimeout:  *busTimeout,
		ConstHints:  *hints,
	}
	if opts.BusRanges, err = parseBusMap(*busMap); err != nil {
		fmt.Fprintln(stderr, "disclint:", err)
		return 2
	}
	if *entries == "" {
		// Convention: a program with a "main" label means it to be a
		// stream entry; analyze it strictly.
		if _, ok := im.Labels["main"]; ok {
			opts.EntryLabels = []string{"main"}
		}
	} else {
		for _, e := range strings.Split(*entries, ",") {
			e = strings.TrimSpace(e)
			if e == "" {
				continue
			}
			if addr, ok := parseAddr(e); ok {
				opts.Entries = append(opts.Entries, addr)
			} else {
				opts.EntryLabels = append(opts.EntryLabels, e)
			}
		}
	}

	sum, r := analysis.Summarize(im, opts)
	findings := r.Findings
	if keep != nil {
		var kept []analysis.Finding
		for _, f := range findings {
			if keep[f.Pass] {
				kept = append(kept, f)
			}
		}
		findings = kept
	}

	if *factsOut != "" {
		blob, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "disclint:", err)
			return 1
		}
		if err := os.WriteFile(*factsOut, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "disclint:", err)
			return 1
		}
	}

	errs, warns, notes := 0, 0, 0
	for _, f := range findings {
		switch f.Severity {
		case analysis.Error:
			errs++
		case analysis.Warning:
			warns++
		default:
			notes++
		}
	}

	if *asJSON {
		rep := jsonReport{
			Schema: reportSchema, File: path,
			Errors: errs, Warnings: warns, Notes: notes,
			Findings: []jsonFinding{},
		}
		for _, f := range findings {
			rep.Findings = append(rep.Findings, jsonFinding{
				Pass: f.Pass, Severity: f.Severity.String(),
				Addr: f.Addr, Line: f.Line, Label: f.Label, Msg: f.Msg,
			})
		}
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "disclint:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(blob))
	} else {
		for _, f := range findings {
			if *quiet && f.Severity != analysis.Error {
				continue
			}
			fmt.Fprintln(stdout, render(path, f))
		}
		if len(findings) > 0 {
			fmt.Fprintf(stderr, "disclint: %d finding(s): %d error(s), %d warning(s)\n",
				len(findings), errs, warns)
		}
	}
	if errs > 0 || (*werror && warns > 0) {
		return 1
	}
	return 0
}

// parsePasses validates a -passes list against the pipeline's pass
// names; an empty list means all passes (nil filter).
func parsePasses(list string) (map[string]bool, error) {
	if list == "" {
		return nil, nil
	}
	known := map[string]bool{}
	for _, p := range analysis.PassNames {
		known[p] = true
	}
	keep := map[string]bool{}
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !known[p] {
			return nil, fmt.Errorf("unknown pass %q (have %s)", p, strings.Join(analysis.PassNames, ", "))
		}
		keep[p] = true
	}
	return keep, nil
}

// parseBusMap parses -bus "base:size:wait,..." into analyzer ranges.
func parseBusMap(list string) ([]analysis.BusRange, error) {
	if list == "" {
		return nil, nil
	}
	var out []analysis.BusRange
	for _, ent := range strings.Split(list, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		parts := strings.Split(ent, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -bus entry %q: want base:size:wait", ent)
		}
		base, ok := parseAddr(parts[0])
		if !ok {
			return nil, fmt.Errorf("bad -bus base %q", parts[0])
		}
		size, ok := parseAddr(parts[1])
		if !ok || size == 0 {
			return nil, fmt.Errorf("bad -bus size %q", parts[1])
		}
		wait, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("bad -bus wait %q", parts[2])
		}
		out = append(out, analysis.BusRange{Base: base, Size: size, Wait: wait})
	}
	return out, nil
}

// render formats one finding as file:line: severity: [pass] msg (at
// addr label); hex images carry no line/label metadata and degrade to
// the bare file and address.
func render(path string, f analysis.Finding) string {
	pos := path
	if f.Line > 0 {
		pos += ":" + strconv.Itoa(f.Line)
	}
	loc := fmt.Sprintf("%04x", f.Addr)
	if f.Label != "" {
		loc += " " + f.Label
	}
	return fmt.Sprintf("%s: %s: [%s] %s (at %s)", pos, f.Severity, f.Pass, f.Msg, loc)
}

// parseAddr accepts 0x-hex or decimal program addresses.
func parseAddr(s string) (uint16, bool) {
	base := 10
	if strings.HasPrefix(s, "0x") {
		base, s = 16, s[2:]
	}
	v, err := strconv.ParseUint(s, base, 16)
	if err != nil {
		return 0, false
	}
	return uint16(v), true
}
