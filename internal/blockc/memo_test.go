package blockc

import (
	"reflect"
	"sync"
	"testing"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/core"
	"disc/internal/isa"
)

// memoOpts returns fresh options for planSrc on every call, with every
// slice field non-empty, so a test may change them in place.
func memoOpts() analysis.Options {
	return analysis.Options{
		Entries:     []uint16{0},
		EntryLabels: []string{"main"},
		Streams:     1,
		BusRanges:   []analysis.BusRange{{Base: isa.ExternalBase, Size: 64, Wait: 2}},
	}
}

// loadImage loads im into a fresh 1-stream machine.
func loadImage(t *testing.T, im *asm.Image) *core.Machine {
	t.Helper()
	m, err := core.New(core.Config{Streams: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Load(m, nil); err != nil {
		t.Fatal(err)
	}
	return m
}

// freshImage assembles planSrc anew: a pointer no earlier attach saw,
// so its first Attach is a memo miss.
func freshImage(t *testing.T) *asm.Image {
	t.Helper()
	im, err := asm.Assemble(planSrc)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// sameTable requires got to be the table a fresh analysis would build
// for m's program store.
func sameTable(t *testing.T, m *core.Machine, im *asm.Image, opts analysis.Options, got *core.BlockTable) {
	t.Helper()
	sum, _ := analysis.Summarize(im, opts)
	want := Compile(m.Program(), sum)
	if got.Compiled != want.Compiled || got.Regions != want.Regions || got.Skipped != want.Skipped ||
		got.Version() != want.Version() {
		t.Fatalf("table %+v v%d, fresh compile %+v v%d", *got, got.Version(), *want, want.Version())
	}
	for pc := 0; pc <= 0xFFFF; pc++ {
		gs, ge, gok := got.RegionAt(uint16(pc))
		ws, we, wok := want.RegionAt(uint16(pc))
		if gs != ws || ge != we || gok != wok {
			t.Fatalf("RegionAt(%#x) = %d..%d %v, fresh compile %d..%d %v", pc, gs, ge, gok, ws, we, wok)
		}
	}
}

// TestAttachMemoHitMatchesFreshCompile: a second attach of one image
// and options, on a second machine, reuses the first attach's plan
// and report and builds the table a fresh Compile(Summarize) builds.
func TestAttachMemoHitMatchesFreshCompile(t *testing.T) {
	im := freshImage(t)
	_, rep := Attach(loadImage(t, im), im, memoOpts())
	m := loadImage(t, im)
	tbl, rep2 := Attach(m, im, memoOpts())
	if rep2 != rep {
		t.Fatal("second attach of the same image and options re-ran the analysis")
	}
	if m.AttachedBlockTable() != tbl || tbl.Compiled == 0 {
		t.Fatalf("hit attached %+v", tbl)
	}
	sameTable(t, m, im, memoOpts(), tbl)
}

// TestAttachMemoHitCompilesPatchedStore: the memo holds a plan, not a
// table. A hit against a machine whose program store was patched after
// loading compiles from the patched words.
func TestAttachMemoHitCompilesPatchedStore(t *testing.T) {
	im := freshImage(t)
	first, rep := Attach(loadImage(t, im), im, memoOpts())
	start, _, ok := first.RegionAt(2)
	if !ok {
		t.Fatal("planSrc's ALU run did not fuse")
	}
	halt, err := isa.Instruction{Op: isa.OpHALT}.Encode() // a region breaker
	if err != nil {
		t.Fatal(err)
	}
	m := loadImage(t, im)
	m.Program().Set(start+2, halt)
	tbl, rep2 := Attach(m, im, memoOpts())
	if rep2 != rep {
		t.Fatal("attach after a patch re-ran the analysis")
	}
	if _, _, ok := tbl.RegionAt(start + 2); ok {
		t.Fatal("hit compiled the image's word over the machine's patched one")
	}
	sameTable(t, m, im, memoOpts(), tbl)
}

// vary changes v in place to another value of its type: the first
// element of a non-empty slice, a new element of an empty one, the
// first field of a struct.
func vary(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		vary(t, v.Field(0))
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		} else {
			vary(t, v.Index(0))
		}
	default:
		t.Fatalf("vary cannot change a %s; extend it", v.Type())
	}
}

// TestAttachMemoKey: the memo keys on the image pointer and on every
// field of analysis.Options. Another image misses, as does changing
// any one field, found by reflection so a field added later is
// covered. The memo keeps its own copy of the options' slices.
func TestAttachMemoKey(t *testing.T) {
	im := freshImage(t)
	_, rep := Attach(loadImage(t, im), im, memoOpts())
	if _, r := Attach(loadImage(t, im), im, memoOpts()); r != rep {
		t.Fatal("equal options missed")
	}
	other := freshImage(t)
	if _, r := Attach(loadImage(t, other), other, memoOpts()); r == rep {
		t.Fatal("another image with the same words hit")
	}
	ft := reflect.TypeOf(analysis.Options{})
	for i := 0; i < ft.NumField(); i++ {
		name := ft.Field(i).Name
		opts := memoOpts()
		vary(t, reflect.ValueOf(&opts).Elem().Field(i))
		if _, r := Attach(loadImage(t, im), im, opts); r == rep {
			t.Errorf("changing Options.%s hit the memo", name)
		}
		if ft.Field(i).Type.Kind() != reflect.Slice {
			continue
		}
		// Change the slice a missed attach was given: the memo's
		// copy must not follow.
		fresh := freshImage(t)
		opts = memoOpts()
		_, r := Attach(loadImage(t, fresh), fresh, opts)
		vary(t, reflect.ValueOf(&opts).Elem().Field(i))
		if _, r2 := Attach(loadImage(t, fresh), fresh, memoOpts()); r2 != r {
			t.Errorf("the memo's key followed a change to the caller's Options.%s", name)
		}
	}
}

// TestAttachMemoBounded: the memo holds at most planCap plans and
// evicts the oldest.
func TestAttachMemoBounded(t *testing.T) {
	ims := make([]*asm.Image, planCap+1)
	reps := make([]*analysis.Report, len(ims))
	for i := range ims {
		ims[i] = freshImage(t)
		_, reps[i] = Attach(loadImage(t, ims[i]), ims[i], memoOpts())
	}
	plans.mu.Lock()
	n := len(plans.entries)
	plans.mu.Unlock()
	if n != planCap {
		t.Fatalf("memo holds %d plans, want %d", n, planCap)
	}
	last := len(ims) - 1
	if _, r := Attach(loadImage(t, ims[last]), ims[last], memoOpts()); r != reps[last] {
		t.Fatal("newest plan was evicted")
	}
	if _, r := Attach(loadImage(t, ims[0]), ims[0], memoOpts()); r == reps[0] {
		t.Fatal("oldest plan survived planCap newer ones")
	}
}

// TestAttachMemoHitAllocs: a hit allocates no more than building and
// attaching the table, which pins that the analysis no longer runs.
func TestAttachMemoHitAllocs(t *testing.T) {
	im := freshImage(t)
	m := loadImage(t, im)
	Attach(m, im, memoOpts())
	opts := memoOpts()
	hit := testing.AllocsPerRun(20, func() { Attach(m, im, opts) })
	specs := Plan(mustSummary(t, im, opts))
	build := testing.AllocsPerRun(20, func() { m.SetBlockTable(core.BuildBlockTable(m.Program(), specs)) })
	if hit > build {
		t.Fatalf("a memo hit made %.0f allocations, building the table %.0f", hit, build)
	}
}

// TestAttachMemoConcurrent attaches one image from several goroutines,
// each on its own machine, as serve workers do; `make race` runs it
// under the race detector.
func TestAttachMemoConcurrent(t *testing.T) {
	im := freshImage(t)
	const n = 8
	ms := make([]*core.Machine, n)
	tbls := make([]*core.BlockTable, n)
	reps := make([]*analysis.Report, n)
	for i := range ms {
		ms[i] = loadImage(t, im)
	}
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tbls[i], reps[i] = Attach(ms[i], im, memoOpts())
		}(i)
	}
	wg.Wait()
	for i := range ms {
		if reps[i] != reps[0] {
			t.Errorf("goroutine %d got a different report", i)
		}
		sameTable(t, ms[i], im, memoOpts(), tbls[i])
	}
}
