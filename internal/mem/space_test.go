package mem

import (
	"testing"
	"testing/quick"
)

func testSpace(t *testing.T) *Space {
	t.Helper()
	s := NewSpace()
	s.MustAddRegion(Region{Name: "ram", Base: 0x1000, Size: 0x1000, Perm: PermRead | PermWrite | PermExec})
	s.MustAddRegion(Region{Name: "rom", Base: 0x3000, Size: 0x800, Perm: PermRead | PermExec})
	s.MustAddRegion(Region{Name: "guard", Base: 0x4000, Size: 0x800, Perm: 0, Fault: FaultPage})
	return s
}

func TestRegionLookup(t *testing.T) {
	s := testSpace(t)
	if r := s.Region(0x1000); r == nil || r.Name != "ram" {
		t.Fatalf("Region(0x1000) = %v", r)
	}
	if r := s.Region(0x1fff); r == nil || r.Name != "ram" {
		t.Fatalf("Region(0x1fff) = %v", r)
	}
	if r := s.Region(0x2000); r != nil {
		t.Fatalf("Region(0x2000) = %v, want nil", r)
	}
	if r := s.RegionByName("rom"); r == nil || r.Base != 0x3000 {
		t.Fatalf("RegionByName(rom) = %v", r)
	}
	if got := len(s.Regions()); got != 3 {
		t.Fatalf("Regions() len = %d", got)
	}
}

// TestRegionLookupSparse covers a layout too sparse for the granule
// index, which find scans instead, and an odd-sized region that forces a
// one-byte granule.
func TestRegionLookupSparse(t *testing.T) {
	sparse := NewSpace()
	sparse.MustAddRegion(Region{Name: "hi", Base: 1 << 40, Size: 0x100, Perm: PermRead | PermWrite})
	sparse.MustAddRegion(Region{Name: "lo", Base: 0x1000, Size: 0x100, Perm: PermRead | PermWrite})
	odd := NewSpace()
	odd.MustAddRegion(Region{Name: "lo", Base: 0x1000, Size: 0x100, Perm: PermRead | PermWrite})
	odd.MustAddRegion(Region{Name: "hi", Base: 0x1101, Size: 0x7f, Perm: PermRead | PermWrite})
	if sparse.index != nil || odd.index == nil || odd.shift != 0 {
		t.Fatalf("index: sparse %v, odd %d entries shift %d", sparse.index != nil, len(odd.index), odd.shift)
	}
	for _, s := range []*Space{sparse, odd} {
		hi := s.RegionByName("hi")
		for addr, want := range map[uint64]string{
			0xfff: "", 0x1000: "lo", 0x10ff: "lo", 0x1100: "",
			hi.Base: "hi", hi.Base + hi.Size - 1: "hi", hi.Base + hi.Size: "",
		} {
			got := ""
			if r := s.Region(addr); r != nil {
				got = r.Name
			}
			if got != want {
				t.Fatalf("Region(%#x) = %q, want %q", addr, got, want)
			}
		}
		s.Write64(0x10fc, ^uint64(0), ^uint64(0)) // half unmapped
		if v, tt := s.Read64(0x10f8); v != 0xffffffff00000000 || tt != v {
			t.Fatalf("straddling write: %#x/%#x", v, tt)
		}
		s.Write64(hi.Base, 7, 1)
		s.Reset()
		if v, tt := s.Read64(0x10f8); v != 0 || tt != 0 {
			t.Fatal("Reset left data in lo")
		}
		if v, tt := s.Read64(hi.Base); v != 0 || tt != 0 {
			t.Fatal("Reset left data in hi")
		}
	}
}

func TestOverlapRejected(t *testing.T) {
	s := testSpace(t)
	if _, err := s.AddRegion(Region{Name: "bad", Base: 0x1800, Size: 0x1000}); err == nil {
		t.Fatal("overlapping region accepted")
	}
	if _, err := s.AddRegion(Region{Name: "empty", Base: 0x9000, Size: 0}); err == nil {
		t.Fatal("zero-size region accepted")
	}
}

func TestPermissionChecks(t *testing.T) {
	s := testSpace(t)
	if err := s.Check(0x1000, 8, AccessStore); err != nil {
		t.Fatalf("store to ram: %v", err)
	}
	err := s.Check(0x3000, 8, AccessStore)
	f, ok := err.(*Fault)
	if !ok || f.Page {
		t.Fatalf("store to rom: %v (want access fault)", err)
	}
	err = s.Check(0x4000, 8, AccessLoad)
	f, ok = err.(*Fault)
	if !ok || !f.Page {
		t.Fatalf("load from guard: %v (want page fault)", err)
	}
	if err := s.Check(0x8000, 1, AccessLoad); err == nil {
		t.Fatal("unmapped read allowed")
	}
	// Access straddling a region boundary faults.
	if err := s.Check(0x1ffc, 8, AccessLoad); err == nil {
		t.Fatal("straddling read allowed")
	}
}

func TestSetPerm(t *testing.T) {
	s := testSpace(t)
	if err := s.SetPerm("ram", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(0x1000, 8, AccessLoad); err == nil {
		t.Fatal("read allowed after revocation")
	}
	if err := s.SetPerm("nope", 0); err == nil {
		t.Fatal("SetPerm on unknown region succeeded")
	}
}

func TestReadWrite64(t *testing.T) {
	s := testSpace(t)
	s.Write64(0x1100, 0xdeadbeefcafef00d, 0x00ff00ff00ff00ff)
	v, tt := s.Read64(0x1100)
	if v != 0xdeadbeefcafef00d {
		t.Fatalf("value %#x", v)
	}
	if tt != 0x00ff00ff00ff00ff {
		t.Fatalf("taint %#x", tt)
	}
}

func TestCheckedReadReturnsDataOnFault(t *testing.T) {
	// The transient-forwarding model depends on faulting reads still
	// exposing the underlying data.
	s := testSpace(t)
	s.Write64(0x1100, 42, 0)
	s.SetPerm("ram", PermWrite)
	v, _, err := s.Read(0x1100, 8, AccessLoad)
	if err == nil {
		t.Fatal("expected fault")
	}
	if v != 42 {
		t.Fatalf("faulting read hid the data: %d", v)
	}
}

func TestSetTaintAndTaintRaw(t *testing.T) {
	s := testSpace(t)
	s.SetTaint(0x1200, 4, true)
	tr := s.TaintRaw(0x11fe, 8)
	want := []byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("taint[%d] = %#x, want %#x (%v)", i, tr[i], want[i], tr)
		}
	}
	s.SetTaint(0x1200, 4, false)
	if tr := s.TaintRaw(0x1200, 4); tr[0] != 0 {
		t.Fatal("taint not cleared")
	}
}

func TestClone(t *testing.T) {
	s := testSpace(t)
	s.Write64(0x1100, 7, ^uint64(0))
	c := s.Clone()
	c.Write64(0x1100, 9, 0)
	if v, _ := s.Read64(0x1100); v != 7 {
		t.Fatal("clone aliases the original")
	}
	if v, tt := c.Read64(0x1100); v != 9 || tt != 0 {
		t.Fatalf("clone state wrong: %d/%#x", v, tt)
	}
	if err := c.SetPerm("ram", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(0x1000, 1, AccessLoad); err != nil {
		t.Fatal("clone permission change leaked to original")
	}
}

// Property: Write64 then Read64 round-trips values and taints at any mapped,
// aligned address.
func TestReadWriteProperty(t *testing.T) {
	s := testSpace(t)
	f := func(off uint16, v, taint uint64) bool {
		addr := 0x1000 + uint64(off)%(0x1000-8)
		addr &^= 7
		s.Write64(addr, v, taint)
		gv, gt := s.Read64(addr)
		return gv == v && gt == taint
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: unchecked byte reads/writes agree with 64-bit accessors.
func TestByteWordConsistency(t *testing.T) {
	s := testSpace(t)
	f := func(v uint64) bool {
		s.Write64(0x1500, v, 0)
		b := s.ReadRaw(0x1500, 8)
		var got uint64
		for i := 7; i >= 0; i-- {
			got = got<<8 | uint64(b[i])
		}
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Addr: 0x123, Kind: AccessStore, Page: true}
	if f.Error() != "mem: store page fault at 0x123" {
		t.Fatalf("Error() = %q", f.Error())
	}
	if AccessFetch.String() != "fetch" || AccessLoad.String() != "load" {
		t.Fatal("AccessKind strings wrong")
	}
}

// BenchmarkSpaceRead64 measures the unchecked word read on a six-region
// space laid out like the swapMem address space, cycling through an
// address in every region.
func BenchmarkSpaceRead64(b *testing.B) {
	s := NewSpace()
	for i, r := range []Region{
		{Name: "shared", Base: 0x1000, Size: 0x1000, Perm: PermRead | PermExec},
		{Name: "dedicated", Base: 0x2000, Size: 0x1000, Perm: PermRead | PermWrite},
		{Name: "guardacc", Base: 0x3000, Size: 0x800},
		{Name: "guardpage", Base: 0x3800, Size: 0x800, Fault: FaultPage},
		{Name: "swap", Base: 0x4000, Size: 0x4000, Perm: PermRead | PermWrite | PermExec},
		{Name: "data", Base: 0x8000, Size: 0x8000, Perm: PermRead | PermWrite},
	} {
		s.MustAddRegion(r)
		s.Write64(r.Base+8*uint64(i), uint64(i), 0)
	}
	addrs := []uint64{0x1008, 0x4010, 0x8018, 0x2020, 0x4ff8, 0xfff8, 0x3808, 0x5000}
	b.ReportAllocs()
	var sum uint64
	for b.Loop() {
		for _, a := range addrs {
			v, t := s.Read64(a)
			sum += v ^ t
		}
	}
	_ = sum
}
