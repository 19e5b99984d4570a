package isa

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"
)

// fuzzBase is an arbitrary aligned assembly base address.
const fuzzBase uint64 = 0x8000_0000

// FuzzAsmDisasmRoundTrip checks the assemble→disassemble→assemble fixpoint:
// for every word the assembler emits, disassembling it must produce text the
// assembler accepts again, and reassembling that text (at the word's
// original PC, since branch immediates are PC-relative) must yield a
// semantically identical instruction with stable disassembly.
func FuzzAsmDisasmRoundTrip(f *testing.F) {
	// Seed corpus: every syntactic form the generator and PoCs emit.
	seeds := []string{
		"nop",
		"li t0, 42\nli t1, 0x80001000\nli t2, -1",
		"li a0, 0x8000000000000000",
		"add t0, t1, t2\nsub t3, t4, t5\nmul t0, t0, t1\nxor t2, t2, t3",
		"andi t4, t5, 0x3f\nslli s1, s0, 6\nsrli t1, t2, 3\nsrai t3, t4, 1",
		"ld t2, 0(t1)\nsd a3, 8(a2)\nlw t0, 16(sp)\nsw t1, -4(s0)",
		"lb t0, 1(t1)\nlbu t2, 2(t3)\nlh t4, 4(t5)\nlhu t6, 6(a0)",
		"loop:\naddi a3, a3, -1\nbnez a3, loop\necall",
		"beq a0, a1, done\nbne t0, t1, done\nblt a2, a3, done\nbge a4, a5, done\ndone:\nnop",
		"j fwd\nnop\nfwd:\necall",
		"jal ra, 8\njalr x0, 0(a0)\njalr ra, 28(t4)\nret",
		"call 0x80000100\nauipc t4, 0\nlui t0, 0x12345",
		"fmv.d.x fa0, s0\nfdiv.d fa1, fa0, fa0\nfadd.d fa2, fa1, fa0\nfmv.x.d t0, fa2",
		"fld fa0, 0(t0)\nfsd fa1, 8(t1)",
		"mv t0, t1\nnot t2, t3\nneg t4, t5\nseqz t6, a0\nsnez a1, a2",
		"ecall\nebreak\nfence\nmret",
		"csrrw t0, 0x300, t1\ncsrrs t2, 0x341, t3",
		".word 0xdeadbeef\n.illegal\nnop",
		"beq zero, zero, 8\necall\necall",
		"addw a0, a1, a2\nsubw a3, a4, a5\naddiw t0, t1, -12\nslliw t2, t3, 5",
		"div a0, a0, a1\ndivu t0, t1, t2\nrem t3, t4, t5\nremu t6, a0, a1",
		"sltu t0, t1, t2\nslt t3, t4, t5\nslti t6, a0, 7\nsltiu a1, a2, 0xff",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		p, err := Asm(fuzzBase, src)
		if err != nil {
			t.Skip() // not an assemblable program; nothing to round-trip
		}
		for idx, w := range p.Words {
			inst := Decode(w)
			if inst.Op == OpInvalid {
				// Raw data (.word/.illegal) has no disassembly contract.
				continue
			}
			pc := p.Base + 4*uint64(idx)
			text := Disasm(inst)
			p2, err := Asm(pc, text)
			if err != nil {
				t.Fatalf("word %#08x at %#x: disassembly %q does not reassemble: %v", w, pc, text, err)
			}
			if len(p2.Words) != 1 {
				t.Fatalf("word %#08x: disassembly %q reassembles to %d words", w, text, len(p2.Words))
			}
			got := Decode(p2.Words[0])
			// Compare semantics, not raw bits: the assembler may emit a
			// different-but-equivalent canonical encoding.
			inst.Raw, got.Raw = 0, 0
			if got != inst {
				t.Fatalf("word %#08x at %#x: round-trip drift\n  text: %q\n  want: %+v\n  got:  %+v",
					w, pc, text, inst, got)
			}
			if again := Disasm(got); again != text {
				t.Fatalf("word %#08x: disassembly unstable: %q -> %q", w, text, again)
			}
		}
	})
}

// TestAsmDisasmSeedCorpus pins the fixpoint on the seed corpus even when the
// fuzz engine is not running (plain `go test` executes f.Add entries too,
// but this keeps a named regression point).
func TestAsmDisasmSeedCorpus(t *testing.T) {
	src := strings.Join([]string{
		"li t6, 0x80002000",
		"trig:",
		"ld t6, 0(t6)",
		"andi s1, s0, 0x3f",
		"slli s1, s1, 6",
		"add t1, t1, s1",
		"ld t2, 0(t1)",
		"ecall",
	}, "\n")
	p, err := Asm(fuzzBase, src)
	if err != nil {
		t.Fatal(err)
	}
	for idx, w := range p.Words {
		inst := Decode(w)
		if inst.Op == OpInvalid {
			t.Fatalf("word %d (%#08x) decodes as invalid", idx, w)
		}
		text := Disasm(inst)
		p2, err := Asm(p.Base+4*uint64(idx), text)
		if err != nil {
			t.Fatalf("disassembly %q does not reassemble: %v", text, err)
		}
		got, want := Decode(p2.Words[0]), inst
		got.Raw, want.Raw = 0, 0
		if got != want {
			t.Fatalf("round-trip drift for %q: %+v vs %+v", text, want, got)
		}
	}
}

// FuzzAssemblerMemo checks that one reused, memoising Assembler assembles
// every program of a sequence exactly as a fresh one-shot Asm does: the
// same words, labels and bytes, or the same error. Programs are separated
// by '|'; program k is assembled at fuzzBase+4k, twice (a cold and a warm
// memo), and counted. The seeds put pc-relative lines at different
// addresses and make a token a label in one program and an immediate in
// the next.
func FuzzAssemblerMemo(f *testing.F) {
	seeds := []string{
		"j 8\nnop\necall|nop\nj 8\necall|nop\nnop\nj 8",
		"beq zero, zero, L\nL:\nnop|nop\nbeq zero, zero, L\nnop\nL:\necall",
		"bnez t0, 12\nbeqz t1, -4|nop\nbnez t0, 12\nbeqz t1, -4",
		"L:\nli t0, 5\nj L|li t0, L|li t0, 5\nL: j L",
		"addi t0, t1, L\nL:|addi t0, t1, 4|L: addi t0, t1, L",
		"jal ra, f\nf:\nret|nop\njal ra, f\nnop\nf:\nret|jal ra, 8",
		"call f\nnop\nf:\nret|nop\ncall f\nf:\nret|call 0x80000100",
		"la t0, x\nx:|nop\nla t0, x\nnop\nx:|la t0, 0x80000010",
		"x: nop\nbnez t0, x|bnez t0, x\nx:|x: y: nop\nj y",
		"bogus|nop\nbogus t0|li t0, 0x123456789",
		"addi t0, t1, 0xzz\nfoo|addi t0, t1, 0xzz|ld t0, 8(zz)",
		"nop # c\n; x\n\n  nop  |nop # c|NOP\nAddi t0, t0, 1",
		"1bad: nop|dup:\ndup:|dup:",
		".word 0xdeadbeef\n.illegal|.word lbl\nlbl:|.word 7",
		"li a0, 0x8000000000000000\nli t1, -1|li a0, 0x8000000000000000",
		"csrrw t0, 0x300, t1\nfld fa0, 0(t0)|fmv.d fa0, fa1\nfdiv.d fa1, fa0, fa0",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, progs string) {
		a := NewAssembler()
		for k, src := range strings.Split(progs, "|") {
			base := fuzzBase + 4*uint64(k)
			lines := strings.Split(src, "\n")
			want, wantErr := Asm(base, src)
			for pass := 0; pass < 2; pass++ {
				got, gotErr := a.Assemble(base, lines)
				if errText(gotErr) != errText(wantErr) {
					t.Fatalf("program %d %q pass %d: error %q, one-shot %q", k, src, pass, errText(gotErr), errText(wantErr))
				}
				n, countErr := a.Count(base, lines)
				if errText(countErr) != errText(wantErr) {
					t.Fatalf("program %d %q pass %d: Count error %q, one-shot %q", k, src, pass, errText(countErr), errText(wantErr))
				}
				if wantErr != nil {
					continue
				}
				if !slices.Equal(got.Words, want.Words) || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("program %d %q pass %d: words %x, one-shot %x", k, src, pass, got.Words, want.Words)
				}
				if !maps.Equal(got.Labels, want.Labels) || got.Base != want.Base {
					t.Fatalf("program %d %q pass %d: labels %v at %#x, one-shot %v at %#x", k, src, pass, got.Labels, got.Base, want.Labels, want.Base)
				}
				if n != len(want.Words) {
					t.Fatalf("program %d %q pass %d: Count %d, one-shot %d words", k, src, pass, n, len(want.Words))
				}
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
