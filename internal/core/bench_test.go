package core

import (
	"testing"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/uarch"
)

// BenchmarkPhase1 measures Phase 1 alone (Phase-1 stimulus construction,
// the trigger run and training reduction) on BOOM, cycling over one seed per
// scenario family.
func BenchmarkPhase1(b *testing.B) {
	var seeds []gen.Seed
	for _, fam := range scenario.Names() {
		seed, err := gen.New(42).SeedScenario(uarch.KindBOOM, fam)
		if err != nil {
			b.Fatal(err)
		}
		seeds = append(seeds, seed)
	}
	f := NewFuzzer(DefaultOptions(uarch.KindBOOM))
	for i := 0; b.Loop(); i++ {
		if _, err := f.Phase1(seeds[i%len(seeds)]); err != nil {
			b.Fatal(err)
		}
	}
}

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

// BenchmarkPhase3 measures Phase 3 alone (constant-time analysis, encode
// sanitisation and its rerun, sink liveness) on BOOM, cycling over one
// Phase 2 result with taint gain per scenario family.
func BenchmarkPhase3(b *testing.B) {
	type job struct {
		f  *Fuzzer
		p1 *Phase1Result
		p2 *Phase2Result
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
		if !p1.Triggered {
			continue
		}
		p2, err := f.Phase2(p1)
		if err != nil {
			b.Fatal(err)
		}
		if p2.TaintGain {
			jobs = append(jobs, job{f, p1, p2})
		}
	}
	if len(jobs) == 0 {
		b.Fatal("no family gained taint")
	}
	for i := 0; b.Loop(); i++ {
		j := jobs[i%len(jobs)]
		if _, err := j.f.Phase3(j.p1, j.p2); err != nil {
			b.Fatal(err)
		}
	}
}
