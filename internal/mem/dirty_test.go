package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// The dirty-set exactness tests drive a Space and a plain per-byte model
// through the same operations and require them to agree after every step.
// The model's reset is the full clear the dirty-set Reset replaces: every
// byte and taint byte zeroed, every permission restored.

// modelRegion is the reference state of one region.
type modelRegion struct {
	Region
	initPerm     Perm
	bytes, taint []byte
}

type model []*modelRegion

// dirtyLayout has two adjacent regions whose sizes are not block multiples
// (so writes straddle both block and region boundaries), a gap, and a
// region without permissions.
var dirtyLayout = []Region{
	{Name: "a", Base: 0x1000, Size: 0x300, Perm: PermRead | PermWrite | PermExec},
	{Name: "b", Base: 0x1300, Size: 0x1a0, Perm: PermRead | PermWrite},
	{Name: "c", Base: 0x2000, Size: 0x400, Perm: 0, Fault: FaultPage},
}

// dirtyAnchors are addresses next to every kind of boundary in dirtyLayout:
// block boundaries, the a/b region boundary, mapped/unmapped edges.
var dirtyAnchors = []uint64{0x0ff8, 0x10fc, 0x11f9, 0x12fc, 0x1400, 0x149c, 0x1ffc, 0x23fc}

func newDirtyPair() (*Space, model) {
	s := NewSpace()
	var m model
	for _, r := range dirtyLayout {
		s.MustAddRegion(r)
		m = append(m, &modelRegion{Region: r, initPerm: r.Perm,
			bytes: make([]byte, r.Size), taint: make([]byte, r.Size)})
	}
	return s, m
}

// at returns the model region and offset of a mapped byte.
func (m model) at(addr uint64) (*modelRegion, uint64, bool) {
	for _, r := range m {
		if r.Contains(addr) {
			return r, addr - r.Base, true
		}
	}
	return nil, 0, false
}

func (m model) clone() model {
	c := make(model, len(m))
	for i, r := range m {
		nr := *r
		nr.bytes = append([]byte(nil), r.bytes...)
		nr.taint = append([]byte(nil), r.taint...)
		c[i] = &nr
	}
	return c
}

// fullClear is the reference reset.
func (m model) fullClear() {
	for _, r := range m {
		clear(r.bytes)
		clear(r.taint)
		r.Perm = r.initPerm
	}
}

func (m model) setBytes(addr uint64, data []byte) {
	for i, v := range data {
		if r, off, ok := m.at(addr + uint64(i)); ok {
			r.bytes[off] = v
		}
	}
}

func (m model) setTaint(addr uint64, data []byte) {
	for i, v := range data {
		if r, off, ok := m.at(addr + uint64(i)); ok {
			r.taint[off] = v
		}
	}
}

// store is the model of a permission-checked Write.
func (m model) store(addr uint64, size int, val, taint uint64) bool {
	r, off, ok := m.at(addr)
	if !ok || off+uint64(size) > r.Size || r.Perm&PermWrite == 0 {
		return false
	}
	m.setBytes(addr, le(val, size))
	m.setTaint(addr, le(taint, size))
	return true
}

func le(v uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(v >> (8 * i))
	}
	return out
}

// check requires s to equal m, and every clean block of s to be zero.
func check(t testing.TB, step string, s *Space, m model) {
	t.Helper()
	for i, mr := range m {
		r := s.regions[i]
		if r.Region != mr.Region {
			t.Fatalf("%s: region %+v, want %+v", step, r.Region, mr.Region)
		}
		if !bytes.Equal(r.bytes, mr.bytes) {
			t.Fatalf("%s: region %q bytes differ from the reference", step, mr.Name)
		}
		if !bytes.Equal(r.taint, mr.taint) {
			t.Fatalf("%s: region %q taint differs from the reference", step, mr.Name)
		}
		for b := uint64(0); b<<blockShift < r.Size; b++ {
			lo, hi := b<<blockShift, min((b+1)<<blockShift, r.Size)
			bit := uint64(1) << (b & 63)
			if r.dirtyB[b>>6]&bit == 0 && !allZero(r.bytes[lo:hi]) {
				t.Fatalf("%s: region %q block %d holds data but is not marked", step, mr.Name, b)
			}
			if r.dirtyT[b>>6]&bit == 0 && !allZero(r.taint[lo:hi]) {
				t.Fatalf("%s: region %q block %d holds taint but is not marked", step, mr.Name, b)
			}
		}
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// opReader decodes an operation sequence from bytes; it reads zeros once
// the input is exhausted.
type opReader struct{ data []byte }

func (r *opReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *opReader) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(r.byte()) << (8 * i)
	}
	return v
}

// addr returns an address within a few bytes of one of the anchors.
func (r *opReader) addr() uint64 {
	b := r.byte()
	return dirtyAnchors[b&7] + uint64(b>>3)
}

// length returns 1..64 bytes, or occasionally up to ~1 KiB so a single
// operation spans several blocks or the whole layout.
func (r *opReader) length() int {
	b := r.byte()
	if b&0xc0 == 0xc0 {
		return 1 + int(b&0x3f)*16
	}
	return 1 + int(b&0x3f)
}

// runDirtyOps applies the operations encoded in data to a Space and the
// model, checking agreement after every step and ending with a Reset.
func runDirtyOps(t testing.TB, data []byte) {
	s, m := newDirtyPair()
	in := &opReader{data: data}
	for step := 0; len(in.data) > 0; step++ {
		switch op := in.byte() % 8; op {
		case 0:
			addr, n := in.addr(), in.length()
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = in.byte() | 1
			}
			s.WriteRaw(addr, buf)
			m.setBytes(addr, buf)
		case 1:
			addr, size := in.addr(), 1<<(in.byte()%4)
			val, taint := in.u64(), in.u64()
			err := s.Write(addr, size, val, taint, AccessStore)
			if ok := m.store(addr, size, val, taint); ok != (err == nil) {
				t.Fatalf("step %d: Write(%#x, %d) error %v, reference accepts=%v", step, addr, size, err, ok)
			}
		case 2:
			addr, val, taint := in.addr(), in.u64(), in.u64()
			s.Write64(addr, val, taint)
			m.setBytes(addr, le(val, 8))
			m.setTaint(addr, le(taint, 8))
		case 3:
			addr, n, on := in.addr(), in.length(), in.byte()&1 == 1
			s.SetTaint(addr, n, on)
			v := bytes.Repeat([]byte{0}, n)
			if on {
				v = bytes.Repeat([]byte{0xff}, n)
			}
			m.setTaint(addr, v)
		case 4:
			mr, p := m[int(in.byte())%len(m)], Perm(in.byte()%8)
			if err := s.SetPerm(mr.Name, p); err != nil {
				t.Fatal(err)
			}
			mr.Perm = p
		case 5:
			addr, n := in.addr(), in.length()
			s.ZeroBytes(addr, n)
			m.setBytes(addr, make([]byte, n))
		case 6:
			s.Reset()
			m.fullClear()
		case 7:
			// A clone carries the dirty state: resetting the original must
			// not disturb the clone, which later resets fully by itself.
			c := s.Clone()
			s.Reset()
			cleared := m.clone()
			cleared.fullClear()
			check(t, "reset original after Clone", s, cleared)
			s = c
		}
		check(t, "after step", s, m)
	}
	s.Reset()
	m.fullClear()
	check(t, "final Reset", s, m)
}

// TestSpaceDirtyResetMatchesFullClear checks that Reset and ZeroBytes,
// which clear only dirty blocks, agree with a full clear over random
// operation sequences, including unaligned writes, writes straddling a
// block or region boundary and writes partly outside any region.
func TestSpaceDirtyResetMatchesFullClear(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for seq := 0; seq < 300; seq++ {
		data := make([]byte, 64+rng.Intn(1024))
		rng.Read(data)
		runDirtyOps(t, data)
	}
}

// FuzzSpaceDirtyReset is TestSpaceDirtyResetMatchesFullClear over
// fuzzer-chosen operation sequences.
func FuzzSpaceDirtyReset(f *testing.F) {
	f.Add([]byte{0, 3, 0xc8, 0xaa, 6})
	f.Add([]byte{2, 0x1b, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 7, 6})
	f.Add([]byte{3, 0x25, 0xff, 1, 5, 0x25, 0xff, 4, 1, 0, 6})
	// Every operation once, in-region, across the block edge at 0x1100.
	f.Add([]byte{
		0, 1, 3, 9, 9, 9, 9,
		1, 1, 3, 1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1,
		2, 2, 1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1,
		3, 4, 5, 1,
		5, 1, 2,
		4, 0, 0,
		7, 6,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		runDirtyOps(t, data)
	})
}
