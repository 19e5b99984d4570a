package core

import (
	"testing"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/uarch"
)

// BenchmarkPhase2 measures Phase 2 alone (window completion plus the traced
// differential run and its taint-gain and coverage analysis) on BOOM, cycling
// over one triggered Phase 1 result per scenario family.
func BenchmarkPhase2(b *testing.B) {
	type job struct {
		f  *Fuzzer
		p1 *Phase1Result
	}
	var jobs []job
	for _, fam := range scenario.Names() {
		seed, err := gen.New(42).SeedScenario(uarch.KindBOOM, fam)
		if err != nil {
			b.Fatal(err)
		}
		f := NewFuzzer(DefaultOptions(uarch.KindBOOM))
		p1, err := f.Phase1(seed)
		if err != nil {
			b.Fatal(err)
		}
		if p1.Triggered {
			jobs = append(jobs, job{f, p1})
		}
	}
	if len(jobs) == 0 {
		b.Fatal("no family triggered")
	}
	for i := 0; b.Loop(); i++ {
		j := jobs[i%len(jobs)]
		if _, err := j.f.Phase2(j.p1); err != nil {
			b.Fatal(err)
		}
	}
}
