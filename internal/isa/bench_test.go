package isa

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// transientLines reads a completed transient packet's assembly as the
// stimulus generator emits it (branch-mispredict family, seed drawn from
// generator seed 7919): 117 lines, most of them alignment nops.
func transientLines(tb testing.TB) []string {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "transient.s"))
	if err != nil {
		tb.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

// BenchmarkAsm measures assembling one recorded transient packet: one-shot
// through Asm, and memoised through a reused Assembler as the stimulus
// generator does.
func BenchmarkAsm(b *testing.B) {
	lines := transientLines(b)
	b.Run("oneshot", func(b *testing.B) {
		src := strings.Join(lines, "\n")
		b.ReportAllocs()
		for b.Loop() {
			if _, err := Asm(0x1000, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		a := NewAssembler()
		b.ReportAllocs()
		for b.Loop() {
			if _, err := a.Assemble(0x1000, lines); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// decodeWords returns one encoded word per encodable op plus, for every
// opcode with a funct3 or funct7 table, a word that hits one of its holes:
// every opcode class Decode distinguishes, valid and invalid.
func decodeWords(tb testing.TB) []uint32 {
	tb.Helper()
	var ws []uint32
	for op := OpInvalid + 1; op < opCount; op++ {
		w, err := Encode(Inst{Op: op, Rd: 5, Rs1: 6, Rs2: 7, Imm: 16})
		if err != nil {
			tb.Fatalf("encode %v: %v", op, err)
		}
		ws = append(ws, w)
	}
	for _, opc := range []uint32{opcLoad, opcStore, opcBranch, opcReg, opcReg32, opcImm32, opcFP, opcJalr} {
		for f3 := uint32(0); f3 < 8; f3++ {
			for _, f7 := range []uint32{0x00, 0x01, 0x20, 0x7f} {
				ws = append(ws, f7<<25|7<<20|6<<15|f3<<12|5<<7|opc)
			}
		}
	}
	return append(ws, IllegalWord, 0xffffffff)
}

// BenchmarkDecode measures decoding every opcode class once per iteration.
func BenchmarkDecode(b *testing.B) {
	ws := decodeWords(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, w := range ws {
			_ = Decode(w)
		}
	}
}
