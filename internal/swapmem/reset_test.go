package swapmem

import (
	"bytes"
	"testing"

	"dejavuzz/internal/uarch"
)

// TestResetSpaceEquivalence pins ResetSpace against NewSpace: a canonical
// space that executed a schedule (packet images written, permissions
// revoked, data stored, taint spread) and is then ResetSpace'd with a new
// secret must be indistinguishable from NewSpace(secret).
func TestResetSpaceEquivalence(t *testing.T) {
	secretA := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	secretB := FlipSecret(secretA)

	used := NewSpace(secretA)
	// Pollute: packet image, data stores, taint spray, permission revocation.
	used.WriteRaw(SwapBase, bytes.Repeat([]byte{0xaa}, 256))
	used.WriteRaw(DataBase+0x100, []byte{9, 9, 9, 9})
	used.SetTaint(DataBase, 0x200, true)
	if err := used.SetPerm("dedicated", 0); err != nil {
		t.Fatal(err)
	}
	ResetSpace(used, secretB)

	fresh := NewSpace(secretB)
	for _, r := range fresh.Regions() {
		ur := used.RegionByName(r.Name)
		if ur == nil {
			t.Fatalf("region %q missing after reset", r.Name)
		}
		if ur.Perm != r.Perm {
			t.Errorf("region %q: perm %v, want %v", r.Name, ur.Perm, r.Perm)
		}
		fb := fresh.ReadRaw(r.Base, int(r.Size))
		ub := used.ReadRaw(r.Base, int(r.Size))
		if !bytes.Equal(fb, ub) {
			t.Errorf("region %q: bytes differ after reset", r.Name)
		}
		ft := fresh.TaintRaw(r.Base, int(r.Size))
		ut := used.TaintRaw(r.Base, int(r.Size))
		if !bytes.Equal(ft, ut) {
			t.Errorf("region %q: taint differs after reset", r.Name)
		}
	}
}

// TestRuntimeRebindEquivalence checks Rebind leaves a runtime in the state
// NewRuntime produces (counters zeroed, log truncated, hook attached).
func TestRuntimeRebindEquivalence(t *testing.T) {
	sp := NewSpace([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	c := uarch.NewCore(uarch.BOOMConfig(), sp, uarch.IFTOff)
	sched := &Schedule{}
	rt := NewRuntime(c, sp, sched)
	rt.Traps = 7
	rt.ExcTraps = 3
	rt.idx = 2
	rt.started = true
	rt.LoadCycles = append(rt.LoadCycles, 10, 20)

	sp2 := NewSpace([]byte{8, 7, 6, 5, 4, 3, 2, 1})
	c2 := uarch.NewCore(uarch.BOOMConfig(), sp2, uarch.IFTOff)
	sched2 := &Schedule{}
	rt.Rebind(c2, sp2, sched2)
	if rt.Space != sp2 || rt.Sched != sched2 || rt.Core != c2 {
		t.Fatal("rebind did not swap bindings")
	}
	if c2.TrapHook == nil {
		t.Fatal("rebind did not attach the trap hook")
	}
	if rt.Traps != 0 || rt.ExcTraps != 0 || rt.idx != 0 || rt.started || len(rt.LoadCycles) != 0 {
		t.Fatalf("rebind left stale state: %+v", rt)
	}
}

// TestClearSwapKeepsTaint pins the packet-unload semantics: ClearSwap zeroes
// every byte of the swappable region and leaves its taint shadow untouched
// (a packet swap moves code, not data, so taint a previous packet's stores
// left behind stays visible to the next one). Neighbouring regions are not
// touched at all.
func TestClearSwapKeepsTaint(t *testing.T) {
	sp := NewSpace(secret)
	sp.WriteRaw(SwapBase, bytes.Repeat([]byte{0xaa}, SwapSize))
	sp.SetTaint(SwapBase+0x10, 0x20, true)
	sp.SetTaint(SwapBase+SwapSize-3, 3, true)
	sp.WriteRaw(DataBase, []byte{5, 6, 7})
	sp.SetTaint(DataBase, 3, true)
	wantTaint := sp.TaintRaw(SwapBase, SwapSize)

	ClearSwap(sp)

	if b := sp.ReadRaw(SwapBase, SwapSize); !bytes.Equal(b, make([]byte, SwapSize)) {
		t.Fatal("ClearSwap left nonzero bytes in the swappable region")
	}
	if got := sp.TaintRaw(SwapBase, SwapSize); !bytes.Equal(got, wantTaint) {
		t.Fatal("ClearSwap changed the swappable region's taint")
	}
	if b := sp.ReadRaw(DataBase, 3); !bytes.Equal(b, []byte{5, 6, 7}) {
		t.Fatalf("ClearSwap touched the data region: %v", b)
	}
	if tt := sp.TaintRaw(DataBase, 3); !bytes.Equal(tt, []byte{0xff, 0xff, 0xff}) {
		t.Fatalf("ClearSwap touched the data region's taint: %v", tt)
	}
	if v, tt := sp.Read64(SecretAddr); v != 0x0807060504030201 || tt != ^uint64(0) {
		t.Fatalf("ClearSwap touched the secret: %#x/%#x", v, tt)
	}
}
