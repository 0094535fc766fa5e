package asm

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"disc/internal/isa"
)

// ReadFile reads a program the way every tool takes one: a ".hex" path
// is decoded as a hex image, any other path is assembled as source.
// Each hook then runs over the image (the -lint gate, say).
func ReadFile(path string, hooks ...Hook) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".hex") {
		return AssembleWith(string(data), hooks...)
	}
	im, err := DecodeHex(string(data))
	if err != nil {
		return nil, err
	}
	return checked(im, hooks)
}

// Resolve turns a label (or .equ constant) of im, or a decimal or 0x-hex
// literal, into an address.
func (im *Image) Resolve(s string) (uint16, error) {
	if v, ok := im.Symbol(s); ok {
		return v, nil
	}
	base, digits := 10, s
	if strings.HasPrefix(s, "0x") {
		base, digits = 16, s[2:]
	}
	v, err := strconv.ParseUint(digits, base, 16)
	if err != nil {
		return 0, fmt.Errorf("asm: %q: not a label or address", s)
	}
	return uint16(v), nil
}

// Target is what an image loads into: a machine's program store and
// stream start (core.Machine has both).
type Target interface {
	LoadProgram(base uint16, words []isa.Word) error
	StartStream(stream int, pc uint16) error
}

// Load installs every section of im into t, then starts each stream
// named in starts at its label or literal address (see Resolve), in
// stream order so that a load is the same whatever the map's order.
func (im *Image) Load(t Target, starts map[int]string) error {
	for _, sec := range im.Sections {
		if err := t.LoadProgram(sec.Base, sec.Words); err != nil {
			return err
		}
	}
	ids := make([]int, 0, len(starts))
	//detlint:ignore collection pass; sorted before use
	for id := range starts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		pc, err := im.Resolve(starts[id])
		if err != nil {
			return err
		}
		if err := t.StartStream(id, pc); err != nil {
			return err
		}
	}
	return nil
}
