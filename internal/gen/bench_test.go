package gen

import (
	"testing"

	"dejavuzz/internal/scenario"
	"dejavuzz/internal/uarch"
)

// BenchmarkBuildStimulus measures the stimulus construction one campaign
// iteration performs — BuildStimulusInto, CompleteWindowInto, SanitizedInto
// — through one long-lived Generator and recycled Stimulus buffers, cycling
// over 256 seeds drawn from New(7919) across every scenario family and both
// cores, with derived (DejaVuzz, the campaign default) or random
// (DejaVuzz*) training.
func BenchmarkBuildStimulus(b *testing.B) {
	for _, v := range []Variant{VariantDerived, VariantRandom} {
		name := "derived"
		if v == VariantRandom {
			name = "random"
		}
		b.Run(name, func(b *testing.B) { benchBuildStimulus(b, v) })
	}
}

func benchBuildStimulus(b *testing.B, v Variant) {
	src := New(7919)
	fams := scenario.Names()
	seeds := make([]Seed, 256)
	for i := range seeds {
		kind := uarch.KindBOOM
		if i%2 == 1 {
			kind = uarch.KindXiangShan
		}
		s, err := src.SeedScenario(kind, fams[i%len(fams)])
		if err != nil {
			b.Fatal(err)
		}
		s.Variant = v
		seeds[i] = s
	}
	g := New(1)
	var st, cst, sst Stimulus
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if err := g.BuildStimulusInto(&st, seeds[i%len(seeds)]); err != nil {
			b.Fatal(err)
		}
		if err := g.CompleteWindowInto(&cst, &st); err != nil {
			b.Fatal(err)
		}
		if err := g.SanitizedInto(&sst, &cst); err != nil {
			b.Fatal(err)
		}
	}
}
