package uarch_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/isa"
	"dejavuzz/internal/mem"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

var censusSecret = []byte{0xa5, 0x3c, 0x96, 0x0f, 0x11, 0xee, 0x42, 0x7b}

// familySchedule builds the completed (Phase 2) swap schedule of one
// scenario family, all training kept.
func familySchedule(t testing.TB, kind uarch.CoreKind, fam string) *swapmem.Schedule {
	t.Helper()
	g := gen.New(42)
	seed, err := g.SeedScenario(kind, fam)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.BuildStimulus(seed)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := g.CompleteWindow(st)
	if err != nil {
		t.Fatal(err)
	}
	return cst.BuildSchedule(nil)
}

// slot is a long-lived core over one swapMem space, reset in place between
// runs the way the campaign's execution contexts reuse theirs.
type slot struct {
	sp *mem.Space
	c  *uarch.Core
	rt *swapmem.Runtime
}

// start readies the slot for a run of sched and starts it.
func (s *slot) start(cfg uarch.Config, mode uarch.IFTMode, secret []byte, sched *swapmem.Schedule) *uarch.Core {
	if s.c == nil {
		s.sp = swapmem.NewSpace(secret)
		s.c = uarch.NewCore(cfg, s.sp, mode)
		s.rt = swapmem.NewRuntime(s.c, s.sp, sched)
	} else {
		swapmem.ResetSpace(s.sp, secret)
		s.c.Reset(cfg, s.sp, mode)
		s.rt.Rebind(s.c, s.sp, sched)
	}
	s.rt.Start()
	return s.c
}

// censusChecker compares the counter census against the full scan.
type censusChecker struct {
	t   *testing.T
	buf []uarch.ModuleTaint
}

func (k *censusChecker) check(where string, c *uarch.Core) {
	k.t.Helper()
	k.buf = c.CensusInto(k.buf[:0])
	if scan := c.CensusScan(); !slices.Equal(k.buf, scan) {
		k.t.Fatalf("%s, cycle %d: counters diverge from scan\ncounters: %v\nscan:     %v", where, c.Cycle, k.buf, scan)
	}
}

// checkBulk checks the bulk and rare shadow operations on a core that has
// run: RAS snapshot restores (full and BOOM's top-only), eviction of a
// tainted TLB entry, replacement of a tainted loop-predictor entry, Restart,
// cache flushes followed by tag taint on every line, and Reset.
func (k *censusChecker) checkBulk(where string, c *uarch.Core) {
	k.t.Helper()
	ras := c.RAS()
	snap := ras.Snapshot()
	ras.Pop()
	for i := 0; i < 3; i++ {
		ras.Push(0x4000+uint64(i), ^uint64(0)>>i) // overwrites the top entry
	}
	k.check(where+" after RAS pushes", c)
	ras.Restore(snap, true)
	k.check(where+" after top-only RAS restore", c)
	ras.Push(0x5000, ^uint64(0))
	ras.Restore(snap, false)
	k.check(where+" after full RAS restore", c)
	ras.Push(0x6000, ^uint64(0)) // left tainted for Reset

	c.DTLB.Lookup(0x2000)
	c.DTLB.TaintPage(0x2000)
	for pg := uint64(0); pg < 128; pg++ {
		c.DTLB.Lookup(0x100000 + pg<<12) // evicts through the L2 TLB too
	}
	k.check(where+" after tainted TLB eviction", c)

	loop := c.Loop()
	loop.Update(0x1000, true, ^uint64(0))
	loop.Update(0x1000+4*uint64(c.Cfg.LoopEntries), true, 0) // same index
	k.check(where+" after tainted loop-entry replacement", c)

	c.Restart(c.PC())
	k.check(where+" after Restart", c)
	caches := []struct {
		*uarch.Cache
		cfg uarch.CacheConfig
	}{{c.ICache, c.Cfg.ICache}, {c.DCache, c.Cfg.DCache}}
	for _, cache := range caches {
		cache.FlushAll()
		k.check(where+" after "+cache.Name+" flush", c)
		for s := 0; s < cache.cfg.Sets; s++ {
			for w := 0; w < cache.cfg.Ways; w++ {
				cache.TaintTag(s, w)
			}
		}
		k.check(where+" after tag-tainting every "+cache.Name+" line", c)
	}
	c.Reset(c.Cfg, c.Mem, c.Mode)
	k.check(where+" after Reset", c)
}

// TestCensusCountersMatchScan pins the incremental census to the full scan
// after every cycle: the stimuli of every scenario family on both cores,
// diffIFT pairs and CellIFT cores, injected-bug and bugless configurations,
// and the co-simulation program generators; then after each bulk shadow
// operation. The scenario runs reuse their cores across families through
// Reset, as campaigns do, and instance B is never flushed first, so a Reset
// that leaves a stale count behind shows up in the next run. A shadow-taint
// write that bypasses its counting setter shows up by module and cycle.
func TestCensusCountersMatchScan(t *testing.T) {
	k := &censusChecker{t: t}
	for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
		for _, bugless := range []bool{false, true} {
			cfg := uarch.ConfigFor(kind)
			name := kind.String() + "/bugs"
			if bugless {
				cfg.Bugs = uarch.BugSet{}
				name = kind.String() + "/bugless"
			}
			var a, b, cell slot
			for _, fam := range scenario.Names() {
				sched := familySchedule(t, kind, fam)
				where := name + "/" + fam

				p := uarch.NewPair(a.start(cfg, uarch.IFTDiff, censusSecret, sched),
					b.start(cfg, uarch.IFTDiff, swapmem.FlipSecret(censusSecret), sched))
				for n := 0; n < 20000 && !(p.A.Halted && p.B.Halted); n++ {
					p.Step()
					k.check(where+"/diffIFT A", p.A)
					k.check(where+"/diffIFT B", p.B)
				}
				k.checkBulk(where+"/diffIFT A", p.A)

				c := cell.start(cfg, uarch.IFTCellIFT, censusSecret, sched)
				for n := 0; n < 20000 && !c.Halted; n++ {
					c.Step()
					k.check(where+"/CellIFT", c)
				}
				k.checkBulk(where+"/CellIFT", c)
			}
		}
	}

	// The co-simulation generators plus taintProgram, over a fully tainted
	// address space so every fill, load and store carries taint.
	rng := rand.New(rand.NewSource(99))
	srcs := []string{taintProgram}
	for trial := 0; trial < 10; trial++ {
		srcs = append(srcs, uarch.RandProgram(rng, 40), uarch.BranchyProgram(rng))
	}
	for i, src := range srcs {
		p := isa.MustAsm(0x1000, src)
		for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
			for _, mode := range []uarch.IFTMode{uarch.IFTOff, uarch.IFTCellIFT} {
				sp := mem.NewSpace()
				sp.MustAddRegion(mem.Region{Name: "all", Base: 0x1000, Size: 0x10000,
					Perm: mem.PermRead | mem.PermWrite | mem.PermExec})
				sp.MustAddRegion(mem.Region{Name: "locked", Base: 0x20000, Size: 0x1000})
				sp.WriteRaw(p.Base, p.Bytes())
				sp.SetTaint(0x1000, 0x10000, true)
				sp.SetTaint(0x20000, 0x1000, true)
				c := uarch.NewCore(uarch.ConfigFor(kind), sp, mode)
				c.TrapHook = uarch.HaltingHook()
				c.Restart(0x1000)
				where := fmt.Sprintf("program %d/%v/%v", i, kind, mode)
				for n := 0; n < 20000 && !c.Halted; n++ {
					c.Step()
					k.check(where, c)
				}
				k.checkBulk(where, c)
			}
		}
	}
}

// taintProgram drives the rarer shadow writes on a tainted address space:
// tainted load and store addresses (tag-tainted cache line and TLB page),
// store-to-load forwarding of tainted data, a tainted branch condition, a
// tainted jump target (indirect-predictor taint), loads that evict the
// tag-tainted line from its set on both cores, and two faulting loads: one
// from the unreadable locked region, which forwards its data transiently,
// and one from unmapped memory, which forwards nothing.
const taintProgram = `
	li   a6, 0x8000
	ld   t2, 8(a6)
	add  t3, a6, t2
	ld   t4, 0(t3)
	sd   t2, 64(t3)
	ld   t6, 64(t3)
	beq  t2, zero, over
	nop
over:
	la   t1, tgt
	add  t0, t1, t2
	jalr ra, 0(t0)
tgt:
	addi a7, a6, 1024
	ld   t5, 0(a7)
	addi a7, a7, 1024
	ld   t5, 0(a7)
	addi a7, a7, 1024
	ld   t5, 0(a7)
	addi a7, a7, 1024
	ld   t5, 0(a7)
	addi a7, a7, 1024
	ld   t5, 0(a7)
	addi a7, a7, 1024
	ld   t5, 0(a7)
	li   t6, 0x20000
	ld   t5, 0(t6)
	li   t6, 0x40000
	ld   t5, 0(t6)
`

// midRunCore returns a CellIFT BOOM core running a branch-mispredict
// stimulus, stopped at its taint peak: caches, TLBs and predictors hold
// taint.
func midRunCore(b *testing.B) *uarch.Core {
	sched := familySchedule(b, uarch.KindBOOM, "branch-mispredict")
	var s slot
	start := func() *uarch.Core { return s.start(uarch.BOOMConfig(), uarch.IFTCellIFT, censusSecret, sched) }
	c := start()
	c.TaintTraceOn = true
	c.Run(20000)
	peak := 0
	for cyc, sum := range c.Trace.TaintSumByCycle {
		if sum > c.Trace.TaintSumByCycle[peak] {
			peak = cyc
		}
	}
	c = start()
	c.Run(peak + 1)
	tainted := map[string]bool{}
	for _, m := range c.Census() {
		tainted[m.Module] = m.Tainted > 0
	}
	for _, m := range []string{"dcache", "icache", "itlb", "bht"} {
		if !tainted[m] {
			b.Fatalf("cycle %d: %s holds no taint: %v", c.Cycle, m, c.Census())
		}
	}
	return c
}

// BenchmarkCensus measures one census of a BOOM core stopped mid-run: the
// running counters against the full-scan reference.
func BenchmarkCensus(b *testing.B) {
	c := midRunCore(b)
	var buf []uarch.ModuleTaint
	b.Run("counters", func(b *testing.B) {
		for b.Loop() {
			buf = c.CensusInto(buf[:0])
		}
	})
	b.Run("scan", func(b *testing.B) {
		for b.Loop() {
			buf = c.CensusScan()
		}
	})
}
