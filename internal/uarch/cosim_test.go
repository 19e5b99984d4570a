package uarch

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/isasim"
	"dejavuzz/internal/mem"
)

// randProgram emits a random straight-line program over registers t0-t6 and
// memory in the data region, ending with ecall.
func randProgram(rng *rand.Rand, n int) string {
	regs := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "s2", "s3"}
	r := func() string { return regs[rng.Intn(len(regs))] }
	var b strings.Builder
	b.WriteString("li a6, 0x8000\n")
	for i := 0; i < len(regs); i++ {
		fmt.Fprintf(&b, "li %s, %d\n", regs[i], rng.Intn(1<<16)-1<<15)
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0:
			fmt.Fprintf(&b, "add %s, %s, %s\n", r(), r(), r())
		case 1:
			fmt.Fprintf(&b, "sub %s, %s, %s\n", r(), r(), r())
		case 2:
			fmt.Fprintf(&b, "mul %s, %s, %s\n", r(), r(), r())
		case 3:
			fmt.Fprintf(&b, "div %s, %s, %s\n", r(), r(), r())
		case 4:
			fmt.Fprintf(&b, "rem %s, %s, %s\n", r(), r(), r())
		case 5:
			fmt.Fprintf(&b, "xor %s, %s, %s\n", r(), r(), r())
		case 6:
			fmt.Fprintf(&b, "andi %s, %s, %#x\n", r(), r(), rng.Intn(2048))
		case 7:
			fmt.Fprintf(&b, "slli %s, %s, %d\n", r(), r(), rng.Intn(32))
		case 8:
			fmt.Fprintf(&b, "sd %s, %d(a6)\n", r(), 8*rng.Intn(32))
		case 9:
			fmt.Fprintf(&b, "ld %s, %d(a6)\n", r(), 8*rng.Intn(32))
		case 10:
			fmt.Fprintf(&b, "sltu %s, %s, %s\n", r(), r(), r())
		case 11:
			fmt.Fprintf(&b, "sraw %s, %s, %s\n", r(), r(), r())
		}
	}
	b.WriteString("ecall\n")
	return b.String()
}

// branchyProgram emits ten data-dependent forward branches over random
// small constants, counting taken paths in s0 and iterations in s1.
func branchyProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("li a6, 0x8000\nli s0, 0\n")
	for i := 0; i < 10; i++ {
		v1, v2 := rng.Intn(8), rng.Intn(8)
		fmt.Fprintf(&b, "li t0, %d\nli t1, %d\n", v1, v2)
		fmt.Fprintf(&b, "beq t0, t1, skip%d\n", i)
		fmt.Fprintf(&b, "addi s0, s0, %d\n", i+1)
		fmt.Fprintf(&b, "skip%d:\n", i)
		fmt.Fprintf(&b, "addi s1, s1, 1\n")
	}
	b.WriteString("ecall\n")
	return b.String()
}

// TestCoSimRandomPrograms: the out-of-order core's committed architectural
// state must match the in-order golden model on random programs — the
// fundamental correctness property speculative execution must preserve.
func TestCoSimRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		src := randProgram(rng, 40)
		p := isa.MustAsm(0x1000, src)
		for _, kind := range []CoreKind{KindBOOM, KindXiangShan} {
			sp := mem.NewSpace()
			sp.MustAddRegion(mem.Region{Name: "all", Base: 0x1000, Size: 0x10000,
				Perm: mem.PermRead | mem.PermWrite | mem.PermExec})
			sp.WriteRaw(p.Base, p.Bytes())

			gold := isasim.New(sp.Clone(), 0x1000)
			gold.Run(5000)

			c := NewCore(ConfigFor(kind), sp, IFTOff)
			c.TrapHook = HaltingHook()
			c.Restart(0x1000)
			c.Run(20000)
			if !c.Halted {
				t.Fatalf("trial %d %v: core did not halt", trial, kind)
			}
			for r := 1; r < 32; r++ {
				got, _ := c.ArchReg(r)
				if got != gold.X[r] {
					t.Fatalf("trial %d %v: %s = %#x, golden %#x\nprogram:\n%s",
						trial, kind, isa.RegName(r), got, gold.X[r], src)
				}
			}
			// Memory effects must match as well.
			for off := uint64(0); off < 32*8; off += 8 {
				gv, _ := gold.Mem.Read64(0x8000 + off)
				cv, _ := c.Mem.Read64(0x8000 + off)
				if gv != cv {
					t.Fatalf("trial %d %v: mem[%#x] = %#x, golden %#x",
						trial, kind, 0x8000+off, cv, gv)
				}
			}
		}
	}
}

// TestCoSimBranchyPrograms: programs with data-dependent forward branches
// must also commit identically despite mispredictions.
func TestCoSimBranchyPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		p := isa.MustAsm(0x1000, branchyProgram(rng))

		sp := mem.NewSpace()
		sp.MustAddRegion(mem.Region{Name: "all", Base: 0x1000, Size: 0x10000,
			Perm: mem.PermRead | mem.PermWrite | mem.PermExec})
		sp.WriteRaw(p.Base, p.Bytes())

		gold := isasim.New(sp.Clone(), 0x1000)
		gold.Run(5000)

		c := NewCore(BOOMConfig(), sp, IFTOff)
		c.TrapHook = HaltingHook()
		c.Restart(0x1000)
		c.Run(20000)
		if got, _ := c.ArchReg(8); got != gold.X[8] {
			t.Fatalf("trial %d: s0 = %d, golden %d", trial, got, gold.X[8])
		}
		if got, _ := c.ArchReg(9); got != gold.X[9] {
			t.Fatalf("trial %d: s1 = %d, golden %d", trial, got, gold.X[9])
		}
	}
}

// TestTraceInvariants runs the trace validator over random programs on both
// cores: commits in order, no commit+squash overlap, no squash holes.
func TestTraceInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		src := randProgram(rng, 30)
		p := isa.MustAsm(0x1000, src)
		for _, kind := range []CoreKind{KindBOOM, KindXiangShan} {
			sp := mem.NewSpace()
			sp.MustAddRegion(mem.Region{Name: "all", Base: 0x1000, Size: 0x10000,
				Perm: mem.PermRead | mem.PermWrite | mem.PermExec})
			sp.WriteRaw(p.Base, p.Bytes())
			c := NewCore(ConfigFor(kind), sp, IFTOff)
			c.TrapHook = HaltingHook()
			c.Restart(0x1000)
			c.Run(20000)
			if err := ValidateTrace(c.Trace); err != nil {
				t.Fatalf("trial %d %v: %v\nprogram:\n%s", trial, kind, err, src)
			}
		}
	}
}

// TestTraceInvariantsUnderSpeculation validates the trace of a heavily
// speculating program (the Spectre-V1 shape) as well.
func TestTraceInvariantsUnderSpeculation(t *testing.T) {
	sp := testSpace(t, mem.PermRead, mem.FaultAccess)
	p := isa.MustAsm(0x1000, `
		li   a3, 3
	loop:
		li   a0, 1
		beq  a0, a0, taken
		nop
	taken:
		addi a3, a3, -1
		bnez a3, loop
		li   a0, 36
		li   a1, 3
		div  a0, a0, a1
		div  a0, a0, a1
		beq  a0, a1, never
		j    done
	never:
		la   t0, 0x2000
		ld   s0, 0(t0)
	done:
		ecall
	`)
	loadProgram(sp, p)
	c := runCore(t, BOOMConfig(), sp, 0x1000, 5000)
	if err := ValidateTrace(c.Trace); err != nil {
		t.Fatal(err)
	}
	if len(c.Trace.Squashes) == 0 {
		t.Fatal("program did not speculate at all")
	}
}
