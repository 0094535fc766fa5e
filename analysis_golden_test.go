package disc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/asmlib"
	"disc/internal/blockc"
	"disc/internal/core"
	"disc/internal/workload"
	"disc/internal/xval"
)

// analysisGolden is the file TestAnalysisGolden checks against.
// Regenerate it, only after a deliberate change to what the analyzer
// reports, with
//
//	ANALYSIS_UPDATE=1 go test -run TestAnalysisGolden .
const analysisGolden = "testdata/analysis_golden.json"

// analysisDigest hashes everything the analyzer hands its consumers
// for one image: the Summary and Report JSON (findings in report
// order), every non-varies branch fate, the fusible spans at
// core.MinFuseLen and the block-engine plan.
func analysisDigest(t *testing.T, im *asm.Image, opts analysis.Options) string {
	t.Helper()
	sum, rep := analysis.Summarize(im, opts)
	var fates []string
	for _, sec := range im.Sections {
		for i := range sec.Words {
			pc := sec.Base + uint16(i)
			if f := sum.BranchFate(pc); f != analysis.FateVaries {
				fates = append(fates, fmt.Sprintf("%04x:%d", pc, f))
			}
		}
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range []any{sum, rep, fates, sum.FusibleSpans(core.MinFuseLen), blockc.Plan(sum)} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// analysisCase is one image and the options it is analyzed under.
type analysisCase struct {
	im   *asm.Image
	opts analysis.Options
}

// analysisCorpus returns the named images and options the golden
// covers: the Table 4.1 load images at 1 and 4 streams over three
// seeds (every stream's image, with the options the block engine
// uses), every asmlib routine, every assembly program embedded in
// examples/*/main.go, and the analyzer's and disclint's .s fixtures
// under two option sets.
func analysisCorpus(t *testing.T) map[string]analysisCase {
	t.Helper()
	corpus := map[string]analysisCase{}
	for _, p := range workload.Base() {
		for _, k := range []int{1, 4} {
			for seed := uint64(1); seed <= 3; seed++ {
				s, err := xval.NewLoadSetup(p, k, seed, core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				for si, im := range s.Images {
					opts := analysis.Options{Entries: []uint16{s.Entries[si]}, Streams: k}
					for _, d := range s.Devices {
						opts.BusRanges = append(opts.BusRanges, analysis.BusRange{Base: d.Base, Size: d.Size, Wait: d.Wait})
					}
					corpus[fmt.Sprintf("%s/k%d/seed%d/stream%d", p.Name, k, seed, si)] = analysisCase{im, opts}
				}
			}
		}
	}

	srcs := map[string]string{
		"asmlib/div16":     asmlib.Div16,
		"asmlib/sqrt16":    asmlib.Sqrt16,
		"asmlib/memcpy":    asmlib.Memcpy,
		"asmlib/crc16":     asmlib.CRC16,
		"asmlib/fixmul":    asmlib.FixMul,
		"asmlib/pid":       asmlib.PIDEquates(0x60) + asmlib.FixMul + asmlib.PID,
		"asmlib/all":       asmlib.PIDEquates(0x60) + asmlib.All(),
		"asmlib/executive": asmlib.ExecEquates(0x50) + asmlib.Executive,
	}
	files, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, path := range files {
		for name, src := range stringConsts(t, path) {
			if strings.Contains(src, "\n") {
				srcs[filepath.Base(filepath.Dir(path))+"/"+name] = src
			}
		}
	}
	fixtures, err := filepath.Glob("internal/analysis/testdata/*.s")
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, "cmd/disclint/testdata/bad.s")
	for _, path := range fixtures {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[path] = string(raw)
	}

	for name, src := range srcs {
		im, err := asm.Assemble(src)
		if err != nil {
			if strings.HasPrefix(name, "asmlib/") || strings.HasSuffix(name, ".s") {
				t.Fatalf("%s: %v", name, err)
			}
			continue // minic source or a fragment of another language
		}
		base := analysis.Options{VectorBase: 0x200}
		if strings.HasPrefix(name, "asmlib/") {
			base = analysis.Options{NoVectors: true}
		}
		if _, hasMain := im.Labels["main"]; hasMain {
			base.EntryLabels = []string{"main"}
		}
		strict := base
		strict.ConstHints = true
		strict.BusRanges = []analysis.BusRange{{Base: 0x400, Size: 64, Wait: 2}, {Base: 0xF000, Size: 16}}
		strict.BusTimeout = 32
		corpus[name] = analysisCase{im, base}
		corpus[name+"/strict"] = analysisCase{im, strict}
	}
	return corpus
}

// TestAnalysisGolden pins the analyzer's complete output, byte for
// byte, over the corpus above: a change to the analyzer's internals
// must leave every digest where it was.
func TestAnalysisGolden(t *testing.T) {
	got := map[string]string{}
	for name, c := range analysisCorpus(t) {
		got[name] = analysisDigest(t, c.im, c.opts)
	}
	if os.Getenv("ANALYSIS_UPDATE") != "" {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analysisGolden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d images)", analysisGolden, len(got))
	}
	raw, err := os.ReadFile(analysisGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with ANALYSIS_UPDATE=1 after a deliberate analyzer change)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: analyzer output drifted from %s", name, analysisGolden)
		}
	}
	if len(got) != len(want) {
		t.Errorf("corpus has %d images, golden %d", len(got), len(want))
	}
}
