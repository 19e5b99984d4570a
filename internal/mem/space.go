// Package mem models the physical address space shared by the ISA golden
// model, the out-of-order core simulator and the dynamic swappable memory.
//
// A Space is a flat byte store partitioned into regions. Each region carries
// access permissions and a fault kind so that the same load can raise either
// an access fault (PMP-style) or a page fault (translation-style), which the
// stimulus generator uses to pick the transient-window trigger type.
//
// Every writer marks the BlockSize-byte blocks it touches in a per-region
// dirty bitmap (one for data bytes, one for the taint shadow), so Reset
// clears only what was written since the last reset instead of the whole
// space.
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Perm is a permission bit set for a region.
type Perm uint8

const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// FaultKind distinguishes how a denied access is reported.
type FaultKind uint8

const (
	// FaultAccess raises load/store/fetch access faults (PMP semantics).
	FaultAccess FaultKind = iota
	// FaultPage raises load/store/fetch page faults (translation semantics).
	FaultPage
)

// AccessKind describes what the requester is doing.
type AccessKind uint8

const (
	AccessLoad AccessKind = iota
	AccessStore
	AccessFetch
)

func (k AccessKind) String() string {
	switch k {
	case AccessLoad:
		return "load"
	case AccessStore:
		return "store"
	case AccessFetch:
		return "fetch"
	}
	return "access"
}

// Fault reports a denied or unmapped memory access.
type Fault struct {
	Addr uint64
	Kind AccessKind
	Page bool // true: page fault, false: access fault
}

func (f *Fault) Error() string {
	name := "access fault"
	if f.Page {
		name = "page fault"
	}
	return fmt.Sprintf("mem: %s %s at %#x", f.Kind, name, f.Addr)
}

// Region is a contiguous range of the space with uniform permissions.
type Region struct {
	Name  string
	Base  uint64
	Size  uint64
	Perm  Perm
	Fault FaultKind
}

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// BlockSize is the granularity, in bytes, at which writes are tracked for
// Reset and ZeroBytes. Blocks are aligned to their region's base.
const BlockSize = 1 << blockShift

const blockShift = 8

// region is one region's record: its public descriptor, backing store,
// construction-time permission and dirty bitmaps. A clear bit in dirtyB
// (dirtyT) guarantees that block's bytes (taint) are all zero; a set bit
// means the block may have been written since it was last cleared.
type region struct {
	Region
	bytes    []byte
	taint    []byte // taint shadow, one mask bit per data bit
	initPerm Perm   // restored by Reset, undoing SetPerm
	dirtyB   []uint64
	dirtyT   []uint64
}

// Space is a byte-addressable physical memory with permission regions.
// The zero value is unusable; construct with NewSpace.
type Space struct {
	regions []*region // sorted by base
	// index maps each granule of [lo, lo+len(index)<<shift) to 1 + its
	// region's position in regions (0: unmapped). A granule is the largest
	// power of two dividing every region's base and size, so none straddles
	// a region edge. index is nil when the layout is too sparse for a
	// table; find then scans regions.
	index []uint8
	lo    uint64
	shift uint
}

// maxIndex bounds the lookup table; a sparser layout is scanned instead.
const maxIndex = 1 << 16

// NewSpace returns an empty space.
func NewSpace() *Space { return &Space{} }

// AddRegion registers a new region and allocates its backing store.
// Regions must not overlap.
func (s *Space) AddRegion(r Region) (*Region, error) {
	if r.Size == 0 {
		return nil, fmt.Errorf("mem: region %q has zero size", r.Name)
	}
	for _, old := range s.regions {
		if r.Base < old.Base+old.Size && old.Base < r.Base+r.Size {
			return nil, fmt.Errorf("mem: region %q overlaps %q", r.Name, old.Name)
		}
	}
	words := ((r.Size+BlockSize-1)>>blockShift + 63) / 64
	rec := &region{
		Region:   r,
		bytes:    make([]byte, r.Size),
		taint:    make([]byte, r.Size),
		initPerm: r.Perm,
		dirtyB:   make([]uint64, words),
		dirtyT:   make([]uint64, words),
	}
	i := len(s.regions)
	for i > 0 && s.regions[i-1].Base > r.Base {
		i--
	}
	s.regions = append(s.regions, nil)
	copy(s.regions[i+1:], s.regions[i:])
	s.regions[i] = rec
	s.buildIndex()
	return &rec.Region, nil
}

// buildIndex rebuilds the granule lookup table for the current layout.
func (s *Space) buildIndex() {
	s.index = nil
	first, last := s.regions[0], s.regions[len(s.regions)-1]
	var align uint64
	for _, r := range s.regions {
		align |= r.Base | r.Size
	}
	shift := uint(bits.TrailingZeros64(align))
	n := (last.Base + last.Size - first.Base) >> shift
	if len(s.regions) > 255 || n > maxIndex {
		return
	}
	idx := make([]uint8, n)
	for i, r := range s.regions {
		for g := (r.Base - first.Base) >> shift; g < (r.Base+r.Size-first.Base)>>shift; g++ {
			idx[g] = uint8(i + 1)
		}
	}
	s.index, s.lo, s.shift = idx, first.Base, shift
}

// mark sets the dirty bits of every block overlapping [off, off+n).
func mark(bm []uint64, off, n uint64) {
	if n == 0 {
		return
	}
	for b, last := off>>blockShift, (off+n-1)>>blockShift; b <= last; b++ {
		bm[b>>6] |= 1 << (b & 63)
	}
}

// clearDirty zeroes every dirty block of buf, one clear per run of
// adjacent dirty blocks, and then clears the bitmap.
func clearDirty(buf []byte, bm []uint64) {
	n := (len(buf) + BlockSize - 1) >> blockShift
	for b := 0; b < n; {
		w := bm[b>>6] >> (b & 63)
		if w == 0 {
			b = (b | 63) + 1
			continue
		}
		b += bits.TrailingZeros64(w)
		e := b + 1
		for e < n && bm[e>>6]&(1<<(e&63)) != 0 {
			e++
		}
		clear(buf[b<<blockShift : min(e<<blockShift, len(buf))])
		b = e
	}
	clear(bm)
}

// Reset returns the space to its construction-time state without
// reallocating: the dirty blocks of every region's bytes and taint shadow
// are zeroed in place and its permissions restored to the values it was
// added with. A reset space is indistinguishable from a freshly built one
// with the same region layout — the property the execution-context reuse in
// internal/core relies on. Reset is exact only because every writer marks
// the blocks it touches; RegionBytes is read-only for that reason.
func (s *Space) Reset() {
	for _, r := range s.regions {
		clearDirty(r.bytes, r.dirtyB)
		clearDirty(r.taint, r.dirtyT)
		r.Perm = r.initPerm
	}
}

// ZeroBytes zeroes the data bytes of [addr, addr+n), leaving their taint
// untouched. Unmapped bytes are skipped. Only dirty blocks are cleared, and
// blocks the range covers entirely become clean.
func (s *Space) ZeroBytes(addr uint64, n int) {
	end := addr + uint64(n)
	for _, r := range s.regions {
		lo, hi := max(addr, r.Base), min(end, r.Base+r.Size)
		if lo >= hi {
			continue
		}
		lo, hi = lo-r.Base, hi-r.Base
		for b := lo >> blockShift; b<<blockShift < hi; b++ {
			bit := uint64(1) << (b & 63)
			if r.dirtyB[b>>6]&bit == 0 {
				continue
			}
			bs, be := b<<blockShift, min((b+1)<<blockShift, r.Size)
			clear(r.bytes[max(bs, lo):min(be, hi)])
			if lo <= bs && be <= hi {
				r.dirtyB[b>>6] &^= bit
			}
		}
	}
}

// MustAddRegion is AddRegion that panics on error; intended for static layouts.
func (s *Space) MustAddRegion(r Region) *Region {
	reg, err := s.AddRegion(r)
	if err != nil {
		panic(err)
	}
	return reg
}

// find returns the record of the region containing addr, or nil.
func (s *Space) find(addr uint64) *region {
	if s.index != nil {
		if g := (addr - s.lo) >> s.shift; g < uint64(len(s.index)) && s.index[g] != 0 {
			return s.regions[s.index[g]-1]
		}
		return nil
	}
	for _, r := range s.regions {
		if addr-r.Base < r.Size {
			return r
		}
	}
	return nil
}

// span returns the record of the region holding all of [addr, addr+size)
// and addr's offset in it, or nil if no single region does.
func (s *Space) span(addr uint64, size int) (*region, uint64) {
	r := s.find(addr)
	if r == nil {
		return nil, 0
	}
	off := addr - r.Base
	if off+uint64(size) > r.Size {
		return nil, 0
	}
	return r, off
}

// Region returns the region containing addr, or nil.
func (s *Space) Region(addr uint64) *Region {
	if r := s.find(addr); r != nil {
		return &r.Region
	}
	return nil
}

// RegionByName returns the region with the given name, or nil.
func (s *Space) RegionByName(name string) *Region {
	if r := s.byName(name); r != nil {
		return &r.Region
	}
	return nil
}

func (s *Space) byName(name string) *region {
	for _, r := range s.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Regions returns all regions ordered by base address.
func (s *Space) Regions() []*Region {
	out := make([]*Region, len(s.regions))
	for i, r := range s.regions {
		out[i] = &r.Region
	}
	return out
}

// SetPerm atomically changes a region's permissions; this is how the swap
// runtime revokes secret access between the training and transient phases.
func (s *Space) SetPerm(name string, p Perm) error {
	r := s.byName(name)
	if r == nil {
		return fmt.Errorf("mem: no region %q", name)
	}
	r.Perm = p
	return nil
}

// Check validates an access of size bytes without performing it.
func (s *Space) Check(addr uint64, size int, kind AccessKind) error {
	r := s.Region(addr)
	if r == nil || !r.Contains(addr+uint64(size)-1) {
		return &Fault{Addr: addr, Kind: kind, Page: false}
	}
	need := PermRead
	switch kind {
	case AccessStore:
		need = PermWrite
	case AccessFetch:
		need = PermExec
	}
	if r.Perm&need == 0 {
		return &Fault{Addr: addr, Kind: kind, Page: r.Fault == FaultPage}
	}
	return nil
}

// ReadRaw reads without permission checks (used for cache refills and debug).
// Unmapped bytes read as zero.
func (s *Space) ReadRaw(addr uint64, size int) []byte {
	out := make([]byte, size)
	if r, off := s.span(addr, size); r != nil {
		copy(out, r.bytes[off:])
		return out
	}
	// Partial overlap: copy byte by byte.
	for i := range out {
		if r, off := s.span(addr+uint64(i), 1); r != nil {
			out[i] = r.bytes[off]
		}
	}
	return out
}

// WriteRaw writes without permission checks. Unmapped bytes are dropped.
func (s *Space) WriteRaw(addr uint64, data []byte) {
	if r, off := s.span(addr, len(data)); r != nil {
		copy(r.bytes[off:], data)
		mark(r.dirtyB, off, uint64(len(data)))
		return
	}
	for i, v := range data {
		if r, off := s.span(addr+uint64(i), 1); r != nil {
			r.bytes[off] = v
			mark(r.dirtyB, off, 1)
		}
	}
}

// TaintRaw reads the taint shadow of [addr, addr+size).
func (s *Space) TaintRaw(addr uint64, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		if r, off := s.span(addr+uint64(i), 1); r != nil {
			out[i] = r.taint[off]
		}
	}
	return out
}

// SetTaint marks [addr, addr+size) fully tainted (every bit).
func (s *Space) SetTaint(addr uint64, size int, tainted bool) {
	v := byte(0)
	if tainted {
		v = 0xff
	}
	for i := 0; i < size; i++ {
		if r, off := s.span(addr+uint64(i), 1); r != nil {
			r.taint[off] = v
			mark(r.dirtyT, off, 1)
		}
	}
}

// Read64 reads a little-endian 64-bit word and its taint mask, unchecked.
func (s *Space) Read64(addr uint64) (val, taint uint64) {
	// Fast path: the word lies entirely inside one region (the overwhelmingly
	// common case on the simulation hot path — no per-access allocation).
	if r, off := s.span(addr, 8); r != nil {
		return binary.LittleEndian.Uint64(r.bytes[off:]), binary.LittleEndian.Uint64(r.taint[off:])
	}
	for i := 7; i >= 0; i-- {
		val <<= 8
		taint <<= 8
		if r, off := s.span(addr+uint64(i), 1); r != nil {
			val |= uint64(r.bytes[off])
			taint |= uint64(r.taint[off])
		}
	}
	return val, taint
}

// Write64 writes a little-endian 64-bit word and its taint mask, unchecked.
func (s *Space) Write64(addr uint64, val, taint uint64) {
	if r, off := s.span(addr, 8); r != nil {
		binary.LittleEndian.PutUint64(r.bytes[off:], val)
		binary.LittleEndian.PutUint64(r.taint[off:], taint)
		mark(r.dirtyB, off, 8)
		mark(r.dirtyT, off, 8)
		return
	}
	for i := 0; i < 8; i++ {
		if r, off := s.span(addr+uint64(i), 1); r != nil {
			r.bytes[off] = byte(val >> (8 * i))
			r.taint[off] = byte(taint >> (8 * i))
			mark(r.dirtyB, off, 1)
			mark(r.dirtyT, off, 1)
		}
	}
}

// RegionBytes returns the live backing bytes of the region containing addr
// (nil if unmapped). The slice aliases the space's storage and writes
// through it bypass dirty tracking (Reset would miss them), so callers must
// treat it as read-only; it exists so observers (coverage diffing, hashing)
// can scan large regions without copying them.
func (s *Space) RegionBytes(addr uint64) []byte {
	if r := s.find(addr); r != nil {
		return r.bytes
	}
	return nil
}

// Read32 reads a little-endian 32-bit word without permission checks or
// allocation (the architectural simulator's fetch path).
func (s *Space) Read32(addr uint64) uint32 {
	if r, off := s.span(addr, 4); r != nil {
		return binary.LittleEndian.Uint32(r.bytes[off:])
	}
	var v uint32
	for i := 0; i < 4; i++ {
		if r, off := s.span(addr+uint64(i), 1); r != nil {
			v |= uint32(r.bytes[off]) << (8 * i)
		}
	}
	return v
}

// Read reads size bytes (1,2,4,8) with permission checks, returning the
// zero-extended value, taint mask and fault (if any). A faulting read still
// returns the underlying data: the transient-forwarding bug model in the core
// decides whether that data is architecturally visible.
func (s *Space) Read(addr uint64, size int, kind AccessKind) (val, taint uint64, err error) {
	err = s.Check(addr, size, kind)
	if r, off := s.span(addr, size); r != nil {
		for i := size - 1; i >= 0; i-- {
			val = val<<8 | uint64(r.bytes[off+uint64(i)])
			taint = taint<<8 | uint64(r.taint[off+uint64(i)])
		}
		return val, taint, err
	}
	for i := size - 1; i >= 0; i-- {
		val <<= 8
		taint <<= 8
		if r, off := s.span(addr+uint64(i), 1); r != nil {
			val |= uint64(r.bytes[off])
			taint |= uint64(r.taint[off])
		}
	}
	return val, taint, err
}

// Write stores size bytes with permission checks. A store that passes the
// check lies inside one region.
func (s *Space) Write(addr uint64, size int, val, taint uint64, kind AccessKind) error {
	if err := s.Check(addr, size, kind); err != nil {
		return err
	}
	r, off := s.span(addr, size)
	for i := 0; i < size; i++ {
		r.bytes[off+uint64(i)] = byte(val >> (8 * i))
		r.taint[off+uint64(i)] = byte(taint >> (8 * i))
	}
	mark(r.dirtyB, off, uint64(size))
	mark(r.dirtyT, off, uint64(size))
	return nil
}

// Clone returns a deep copy of the space: regions, bytes, taints and dirty
// state, so a clone resets exactly like its original. Only tests call it
// (to run two models over one initial image); execution contexts reset
// their spaces in place instead.
func (s *Space) Clone() *Space {
	// The index is never written after it is built, so clones share it.
	c := &Space{regions: make([]*region, len(s.regions)), index: s.index, lo: s.lo, shift: s.shift}
	for i, r := range s.regions {
		nr := *r
		nr.bytes = append([]byte(nil), r.bytes...)
		nr.taint = append([]byte(nil), r.taint...)
		nr.dirtyB = append([]uint64(nil), r.dirtyB...)
		nr.dirtyT = append([]uint64(nil), r.dirtyT...)
		c.regions[i] = &nr
	}
	return c
}
