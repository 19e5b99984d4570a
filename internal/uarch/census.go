package uarch

import "math/bits"

// taintCount is one unit's running taint census: how many of its shadow
// elements hold any tainted bit, and how many tainted bits they hold in
// total. Every shadow-taint write in the model goes through a counting
// setter that keeps it exact, so a census costs O(modules) per cycle instead
// of a scan over every element; (*Core).CensusScan is the full-scan
// reference the counters are tested against.
type taintCount struct{ elems, bits int }

// set accounts for a single-word element's shadow changing from old to t.
func (n *taintCount) set(old, t uint64) {
	if old == t {
		return
	}
	if old != 0 {
		n.elems--
		n.bits -= bits.OnesCount64(old)
	}
	if t != 0 {
		n.elems++
		n.bits += bits.OnesCount64(t)
	}
}

// setWord accounts for one shadow word of a multi-word element changing
// from old to t; elemBits is the element's running tainted-bit total, so the
// element counts as tainted exactly while the total is non-zero.
func (n *taintCount) setWord(elemBits *int, old, t uint64) {
	d := bits.OnesCount64(t) - bits.OnesCount64(old)
	if d == 0 {
		return
	}
	if *elemBits == 0 {
		n.elems++
	}
	*elemBits += d
	n.bits += d
	if *elemBits == 0 {
		n.elems--
	}
}

// clearElem accounts for a multi-word element's shadow being zeroed
// wholesale.
func (n *taintCount) clearElem(elemBits *int) {
	if *elemBits != 0 {
		n.elems--
		n.bits -= *elemBits
		*elemBits = 0
	}
}

// addElem is the full-scan accumulator: it counts one element holding
// elemBits tainted bits.
func (n *taintCount) addElem(elemBits int) {
	if elemBits > 0 {
		n.elems++
		n.bits += elemBits
	}
}

// scanU64 is the full-scan census of single-word shadow elements.
func scanU64(shadows ...[]uint64) taintCount {
	var n taintCount
	for _, ts := range shadows {
		for _, t := range ts {
			n.addElem(bits.OnesCount64(t))
		}
	}
	return n
}

func (n taintCount) module(name string) ModuleTaint {
	return ModuleTaint{Module: name, Tainted: n.elems, Bits: n.bits}
}

// ModuleTaint is one module's taint census entry.
type ModuleTaint struct {
	Module  string
	Tainted int
	Bits    int
}

// Census reports per-module tainted element and bit counts across the whole
// microarchitecture (the coverage substrate and the Figure 6 series).
func (c *Core) Census() []ModuleTaint { return c.CensusInto(nil) }

// CensusInto is Census appending into a caller-provided buffer — the
// per-cycle taint-tracing path reuses one scratch slice instead of
// allocating a census every cycle. Counted units report their running
// counters; the pc, FPU latch and line-fill buffer are read directly.
func (c *Core) CensusInto(out []ModuleTaint) []ModuleTaint {
	return append(out,
		c.frontendModule(),
		c.robCensus.module("rob"),
		c.regCensus.module("regfile"),
		c.lsuCensus.module("lsu"),
		c.DCache.census.module("dcache"),
		c.ICache.census.module("icache"),
		c.lfbModule(),
		c.DTLB.census.module("dtlb"),
		c.ITLB.census.module("itlb"),
		c.L2TLB.census.module("l2tlb"),
		c.bht.census.module("bht"),
		c.btb.census.module("btb"),
		c.faubtb.census.module("faubtb"),
		c.ind.census.module("indbtb"),
		c.ras.census.module("ras"),
		c.loop.census.module("loop"),
		c.fpuModule(),
	)
}

// CensusScan is the reference census: it rescans every shadow element of
// every unit instead of reading the running counters. It must always equal
// Census; TestCensusCountersMatchScan checks that after every cycle.
func (c *Core) CensusScan() []ModuleTaint {
	return []ModuleTaint{
		c.frontendModule(),
		c.robScan().module("rob"),
		scanU64(c.archXT[:], c.archFT[:]).module("regfile"),
		c.lsuScan().module("lsu"),
		c.DCache.censusScan().module("dcache"),
		c.ICache.censusScan().module("icache"),
		c.lfbModule(),
		c.DTLB.censusScan().module("dtlb"),
		c.ITLB.censusScan().module("itlb"),
		c.L2TLB.censusScan().module("l2tlb"),
		scanU64(c.bht.taint).module("bht"),
		c.btb.censusScan().module("btb"),
		c.faubtb.censusScan().module("faubtb"),
		c.ind.censusScan().module("indbtb"),
		scanU64(c.ras.taint).module("ras"),
		c.loop.censusScan().module("loop"),
		c.fpuModule(),
	}
}

// frontendModule is the pc shadow (the fetch buffer carries no taint).
func (c *Core) frontendModule() ModuleTaint {
	var n taintCount
	n.addElem(bits.OnesCount64(c.pcTaint))
	return n.module("frontend")
}

// lfbModule counts tainted line-fill-buffer slots, each as a full line.
func (c *Core) lfbModule() ModuleTaint {
	lf, _ := c.DCache.LFBCensus(c.Cycle)
	return ModuleTaint{Module: "lfb", Tainted: lf, Bits: lf * 64}
}

func (c *Core) fpuModule() ModuleTaint {
	var n taintCount
	n.addElem(bits.OnesCount64(c.fpuLatchTaint))
	return n.module("fpu")
}

// robScan covers the raw shadow state: squashed entries retain their taint
// registers exactly as a shadow circuit would.
func (c *Core) robScan() taintCount {
	var n taintCount
	for i := range c.rob {
		e := &c.rob[i]
		n.addElem(bits.OnesCount64(e.taint) + bits.OnesCount64(e.addrTaint) + bits.OnesCount64(e.stDataT))
	}
	return n
}

func (c *Core) lsuScan() taintCount {
	var n taintCount
	for i := range c.ldq {
		n.addElem(bits.OnesCount64(c.ldq[i].taint))
	}
	for i := range c.stq {
		n.addElem(bits.OnesCount64(c.stq[i].taint))
	}
	return n
}

// censusModules is the number of modules a census reports.
const censusModules = 17

// TaintSum totals tainted bits across all modules.
func (c *Core) TaintSum() int {
	var buf [censusModules]ModuleTaint
	sum := 0
	for _, m := range c.CensusInto(buf[:0]) {
		sum += m.Bits
	}
	return sum
}

// setROBTaint, setROBAddrTaint and setROBStDataT write a RoB entry's three
// shadow fields, keeping the rob census current.
func (c *Core) setROBTaint(e *robEntry, t uint64) {
	c.robCensus.setWord(&e.taintBits, e.taint, t)
	e.taint = t
}

func (c *Core) setROBAddrTaint(e *robEntry, t uint64) {
	c.robCensus.setWord(&e.taintBits, e.addrTaint, t)
	e.addrTaint = t
}

func (c *Core) setROBStDataT(e *robEntry, t uint64) {
	c.robCensus.setWord(&e.taintBits, e.stDataT, t)
	e.stDataT = t
}

// setQueueTaint writes a load/store-queue slot's shadow, keeping the lsu
// census current.
func (c *Core) setQueueTaint(q *queueEntry, t uint64) {
	c.lsuCensus.set(q.taint, t)
	q.taint = t
}
