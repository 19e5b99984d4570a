package swapmem_test

import (
	"testing"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// word is one 8-byte word a schedule left different from a fresh space.
type word struct{ addr, val, taint uint64 }

// BenchmarkResetSpace measures ResetSpace on a space that has just run a
// real schedule. A generated stimulus runs once on the BOOM core with
// CellIFT; every 8-byte word it left different from a fresh space (bytes
// or taint) and every permission it changed are recorded, and each
// iteration replays that footprint outside the timer before resetting.
func BenchmarkResetSpace(b *testing.B) {
	secret := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67}
	g := gen.New(7919)
	st, err := g.BuildStimulus(g.RandomSeed(uarch.KindBOOM))
	if err != nil {
		b.Fatal(err)
	}
	ran := swapmem.NewSpace(secret)
	c := uarch.NewCore(uarch.BOOMConfig(), ran, uarch.IFTCellIFT)
	rt := swapmem.NewRuntime(c, ran, st.BuildSchedule(nil))
	rt.Start()
	c.Run(20000)

	fresh := swapmem.NewSpace(secret)
	var footprint []word
	var perms []swapmem.PermUpdate
	for _, r := range ran.Regions() {
		for a := r.Base; a < r.Base+r.Size; a += 8 {
			v, t := ran.Read64(a)
			fv, ft := fresh.Read64(a)
			if v != fv || t != ft {
				footprint = append(footprint, word{a, v, t})
			}
		}
		if fr := fresh.RegionByName(r.Name); fr.Perm != r.Perm {
			perms = append(perms, swapmem.PermUpdate{Region: r.Name, Perm: r.Perm})
		}
	}
	if len(footprint) == 0 {
		b.Fatal("schedule left no footprint")
	}

	sp := swapmem.NewSpace(secret)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, w := range footprint {
			sp.Write64(w.addr, w.val, w.taint)
		}
		for _, pu := range perms {
			_ = sp.SetPerm(pu.Region, pu.Perm)
		}
		b.StartTimer()
		swapmem.ResetSpace(sp, secret)
	}
}
