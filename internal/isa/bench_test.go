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
