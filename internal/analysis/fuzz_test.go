package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"disc/internal/asm"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/rng"
)

// randomImage builds an arbitrary assembled image: a handful of
// sections full of random 24-bit words (most decode into wild but
// legal instructions, some are illegal), random data marks, random
// labels and occasional metadata gaps — everything a hostile or
// corrupted toolchain could hand the analyzer.
func randomImage(src *rng.Source) *asm.Image {
	im := &asm.Image{
		Symbols:     map[string]uint16{},
		Labels:      map[string]uint16{},
		SourceLines: map[uint16]int{},
		Data:        map[uint16]bool{},
	}
	nsec := 1 + src.Intn(4)
	for s := 0; s < nsec; s++ {
		base := uint16(src.Intn(1 << 16))
		words := make([]isa.Word, 1+src.Intn(64))
		for i := range words {
			words[i] = isa.Word(src.Uint64()) & isa.MaxWord
			addr := base + uint16(i)
			if src.Bool(0.1) {
				im.Data[addr] = true
			}
			if src.Bool(0.3) {
				im.SourceLines[addr] = 1 + src.Intn(500)
			}
		}
		im.Sections = append(im.Sections, asm.Section{Base: base, Words: words})
		if src.Bool(0.7) {
			name := string(rune('a' + s))
			lab := base + uint16(src.Intn(len(words)))
			im.Labels[name] = lab
			im.Symbols[name] = lab
		}
	}
	if src.Bool(0.2) {
		// Strip metadata entirely, as hex-loaded images have none.
		im.Labels, im.SourceLines, im.Data = nil, nil, nil
	}
	return im
}

func randomOptions(src *rng.Source) Options {
	opts := Options{
		VectorBase:  uint16(src.Intn(1 << 16)),
		Streams:     src.Intn(isa.NumStreams + 1),
		NoVectors:   src.Bool(0.2),
		WindowDepth: src.Intn(128) - 16,
	}
	for n := src.Intn(3); n > 0; n-- {
		opts.Entries = append(opts.Entries, uint16(src.Intn(1<<16)))
	}
	if src.Bool(0.3) {
		opts.EntryLabels = append(opts.EntryLabels, "a", "nosuch")
	}
	return opts
}

// TestRandomImagesNeverPanic is the analyzer's robustness contract,
// mirroring the simulator's (internal/core): Analyze must terminate
// without panicking on arbitrary images and arbitrary options, and
// its report must be internally consistent.
func TestRandomImagesNeverPanic(t *testing.T) {
	src := rng.New(0xD15C)
	for trial := 0; trial < 200; trial++ {
		im := randomImage(src)
		opts := randomOptions(src)
		r := Analyze(im, opts)
		errs := 0
		for _, f := range r.Findings {
			if f.Pass == "" || f.Msg == "" {
				t.Fatalf("trial %d: blank finding %+v", trial, f)
			}
			if f.Severity == Error {
				errs++
			}
		}
		if errs != r.ErrorCount() {
			t.Fatalf("trial %d: ErrorCount %d, counted %d", trial, r.ErrorCount(), errs)
		}
	}
}

// checkSummary asserts the structural invariants every Summary must
// satisfy regardless of input: sorted disjoint blocks, BlockAt
// consistency, and counts that add up.
func checkSummary(t *testing.T, sum *Summary) {
	t.Helper()
	if sum.Schema != SummarySchema {
		t.Fatalf("schema %q", sum.Schema)
	}
	for i := range sum.Blocks {
		b := &sum.Blocks[i]
		if b.Start > b.End || b.Len != int(b.End-b.Start)+1 {
			t.Fatalf("block %d malformed: %+v", i, b)
		}
		if i > 0 && sum.Blocks[i-1].End >= b.Start {
			t.Fatalf("blocks %d/%d overlap or unsorted: %+v %+v", i-1, i, sum.Blocks[i-1], b)
		}
		if got := sum.BlockAt(b.Start); got == nil || got.Start != b.Start {
			t.Fatalf("BlockAt(%04x) missed its own block", b.Start)
		}
		if b.EventFree && (b.BusAccesses > 0 || b.IRQVisible || b.StreamControl || !b.DeltaKnown) {
			t.Fatalf("event-free block with events: %+v", b)
		}
		if b.StallBound < StallUnbounded {
			t.Fatalf("negative non-sentinel stall bound: %+v", b)
		}
	}
}

// randomBusOptions extends randomOptions with a random device map and
// timeout, covering the stall-bound and unmapped-address paths.
func randomBusOptions(src *rng.Source) Options {
	opts := randomOptions(src)
	for n := src.Intn(4); n > 0; n-- {
		opts.BusRanges = append(opts.BusRanges, BusRange{
			Base: uint16(src.Intn(1 << 16)),
			Size: uint16(src.Intn(256)),
			Wait: src.Intn(8) - 1,
		})
	}
	opts.BusTimeout = src.Intn(64) - 1
	opts.ConstHints = src.Bool(0.5)
	return opts
}

// TestRandomImagesSummarize extends the robustness contract to the
// block-summary layer: Summarize must terminate on arbitrary images,
// produce structurally sound summaries, and be idempotent — two runs
// over the same input are deeply equal (the analyzer keeps no state
// between runs and iterates nothing in map order).
func TestRandomImagesSummarize(t *testing.T) {
	src := rng.New(0xAB51)
	for trial := 0; trial < 200; trial++ {
		im := randomImage(src)
		opts := randomBusOptions(src)
		s1, r1 := Summarize(im, opts)
		checkSummary(t, s1)
		s2, r2 := Summarize(im, opts)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("trial %d: summaries not idempotent", trial)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("trial %d: reports not idempotent", trial)
		}
	}
}

// randomImagesGolden is the digest of everything Summarize returns for
// TestRandomImagesSummarize's 200 images. It moves only when what the
// analyzer reports changes, never with how it computes it.
const randomImagesGolden = "d7abf88ffaae24e31ae9fce54031a4cdb4b13fa06bdb7f89debe6ded0f6d463a"

// TestRandomImagesGolden pins the analyzer's output over the same 200
// images TestRandomImagesSummarize draws: the Summary and Report JSON,
// every non-varies branch fate and the fusible spans at
// core.MinFuseLen (what the block-engine planner proposes). Random
// images carry the cases real programs never do — overlapping and
// wrapping sections, reachable data, illegal words, no labels at all.
func TestRandomImagesGolden(t *testing.T) {
	src := rng.New(0xAB51)
	h := sha256.New()
	enc := json.NewEncoder(h)
	for trial := 0; trial < 200; trial++ {
		im := randomImage(src)
		sum, rep := Summarize(im, randomBusOptions(src))
		var fates []string
		for _, sec := range im.Sections {
			for i := range sec.Words {
				pc := sec.Base + uint16(i)
				if f := sum.BranchFate(pc); f != FateVaries {
					fates = append(fates, fmt.Sprintf("%04x:%d", pc, f))
				}
			}
		}
		for _, v := range []any{sum, rep, fates, sum.FusibleSpans(core.MinFuseLen)} {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != randomImagesGolden {
		t.Fatalf("analyzer output over the random images drifted: digest %s, want %s", got, randomImagesGolden)
	}
}

// FuzzAbsint drives the whole abstract-interpretation engine — value
// fixpoint, livelock SCCs, block summaries, stall bounds — from raw
// bytes: it must never panic and the summary must stay structurally
// sound and idempotent across re-analysis.
func FuzzAbsint(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00}, uint16(0), uint16(0x200), uint16(0x0400), 3)
	f.Add([]byte{0x04, 0x12, 0xF0, 0xFF, 0xFF, 0xFF}, uint16(0xFFFE), uint16(0), uint16(0xF000), 0)
	// An LDI/CMPI/BEQ triple: exercises fates and pruning.
	f.Add([]byte{
		0x50, 0x00, 0x05, // LDI R0, 5
		0x4C, 0x00, 0x05, // CMPI R0, 5
		0x78, 0x1F, 0xFE, // BEQ  .-1
	}, uint16(0x10), uint16(0x200), uint16(0x0400), 1)
	f.Fuzz(func(t *testing.T, raw []byte, base, vb, devBase uint16, wait int) {
		if len(raw) > 3*4096 {
			raw = raw[:3*4096]
		}
		var words []isa.Word
		for i := 0; i+2 < len(raw); i += 3 {
			w := isa.Word(raw[i])<<16 | isa.Word(raw[i+1])<<8 | isa.Word(raw[i+2])
			words = append(words, w&isa.MaxWord)
		}
		if len(words) == 0 {
			return
		}
		im := &asm.Image{
			Sections: []asm.Section{{Base: base, Words: words}},
			Labels:   map[string]uint16{"f": base},
			Data:     map[uint16]bool{base + uint16(len(words)/2): true},
		}
		opts := Options{
			VectorBase: vb,
			Entries:    []uint16{base},
			BusRanges:  []BusRange{{Base: devBase, Size: 64, Wait: wait}},
			BusTimeout: wait * 4,
			ConstHints: true,
		}
		s1, _ := Summarize(im, opts)
		checkSummary(t, s1)
		s2, _ := Summarize(im, opts)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatal("summary not idempotent")
		}
	})
}

// FuzzAnalyze feeds arbitrary bytes through the assembler-free path:
// the raw words become a single section, with the fuzzer also steering
// the vector base and data marks. Analyze must never panic.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00}, uint16(0), uint16(0x200))
	f.Add([]byte{0x04, 0x12, 0xF0, 0xFF, 0xFF, 0xFF}, uint16(0xFFFE), uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, base, vb uint16) {
		if len(raw) > 3*4096 {
			raw = raw[:3*4096]
		}
		var words []isa.Word
		for i := 0; i+2 < len(raw); i += 3 {
			w := isa.Word(raw[i])<<16 | isa.Word(raw[i+1])<<8 | isa.Word(raw[i+2])
			words = append(words, w&isa.MaxWord)
		}
		if len(words) == 0 {
			return
		}
		im := &asm.Image{
			Sections: []asm.Section{{Base: base, Words: words}},
			Labels:   map[string]uint16{"f": base},
			Data:     map[uint16]bool{base + uint16(len(words)/2): true},
		}
		Analyze(im, Options{VectorBase: vb, Entries: []uint16{base}})
	})
}
