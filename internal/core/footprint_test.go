package core

import (
	"runtime"
	"testing"

	"disc/internal/isa"
)

// allocBytes returns the heap bytes f allocates: the growth of
// runtime.MemStats.TotalAlloc across the call.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestProgramStoreFootprint: a machine holding a small image pays for
// that image, not for the whole 64 K-word address space. The budget
// covers the entire machine — streams, window files, scheduler, bus
// and the 2 KB internal memory (about 5 KB in all when the budget was
// set) — and sits far below the 1.3 MB that three fixed 64 K program
// arrays cost on their own. Restoring a snapshot into a fresh machine
// is held to the same budget, since the restored store is sized to the
// snapshot's limit.
func TestProgramStoreFootprint(t *testing.T) {
	const budget = 32 << 10
	image := make([]isa.Word, 55)
	for i := range image {
		w, err := isa.Instruction{Op: isa.OpADDI, Rd: isa.R1, Imm: int32(i)}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		image[i] = w
	}
	var m *Machine
	got := allocBytes(func() {
		m = MustNew(Config{Streams: 1})
		if err := m.LoadProgram(0, image); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("machine with a %d-word image: %d bytes", len(image), got)
	if got > budget {
		t.Fatalf("machine with a %d-word image allocated %d bytes, budget %d", len(image), got, budget)
	}

	s, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got = allocBytes(func() {
		r := MustNew(Config{Streams: 1})
		if err := r.Restore(s); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("restore into a fresh machine: %d bytes", got)
	if got > budget {
		t.Fatalf("restore into a fresh machine allocated %d bytes, budget %d", got, budget)
	}
}
