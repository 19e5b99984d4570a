package gen

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dejavuzz/internal/scenario"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// stimulusPinPath holds one sha256 per scenario family, recorded before the
// line assembler gained its memo and the derivation RNG its lazy seeding.
var stimulusPinPath = filepath.Join("testdata", "stimulus_pin.golden")

// stimulusPinSeeds is the number of seeds drawn per (family, core, variant).
const stimulusPinSeeds = 64

// TestStimulusGoldenPin pins everything stimulus construction emits to
// recorded digests. For every scenario family it draws 64 seeds per core
// (boom, xiangshan) and variant (derived, random), plus one Mutate of each,
// and digests the BuildStimulusInto → CompleteWindowInto → SanitizedInto
// chain: every packet image, TriggerPC, WindowLo/WindowHi, EncodeLines and
// the TO/ETO training counts. One long-lived Generator and one set of
// Stimulus buffers serve every seed, so memo, training-cache and buffer
// reuse across builds is part of what is pinned.
func TestStimulusGoldenPin(t *testing.T) {
	g := New(20261017)
	var st, cst, sst Stimulus
	var got []string
	for _, fam := range scenario.Names() {
		h := sha256.New()
		for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
			for _, v := range []Variant{VariantDerived, VariantRandom} {
				for i := 0; i < stimulusPinSeeds; i++ {
					seed, err := g.SeedScenario(kind, fam)
					if err != nil {
						t.Fatal(err)
					}
					seed.Variant = v
					digestChain(h, g, &st, &cst, &sst, seed)
					digestChain(h, g, &st, &cst, &sst, g.Mutate(seed))
				}
			}
		}
		got = append(got, fmt.Sprintf("%s %x", fam, h.Sum(nil)))
	}

	want, err := os.ReadFile(stimulusPinPath)
	if err != nil {
		t.Fatal(err)
	}
	gotText := strings.Join(got, "\n") + "\n"
	if gotText != string(want) {
		t.Errorf("stimulus construction drifted from %s\n--- got ---\n%s--- want ---\n%s", stimulusPinPath, gotText, want)
	}
}

// digestChain runs one seed through the three builds a campaign iteration
// performs and writes each result (or its error) into h.
func digestChain(h hash.Hash, g *Generator, st, cst, sst *Stimulus, seed Seed) {
	fmt.Fprintf(h, "seed %+v\n", seed)
	if err := g.BuildStimulusInto(st, seed); err != nil {
		fmt.Fprintf(h, "build error %v\n", err)
		return
	}
	digestStimulus(h, "build", st)
	if err := g.CompleteWindowInto(cst, st); err != nil {
		fmt.Fprintf(h, "complete error %v\n", err)
		return
	}
	digestStimulus(h, "complete", cst)
	if err := g.SanitizedInto(sst, cst); err != nil {
		fmt.Fprintf(h, "sanitize error %v\n", err)
		return
	}
	digestStimulus(h, "sanitize", sst)
}

func digestStimulus(h hash.Hash, stage string, st *Stimulus) {
	fmt.Fprintf(h, "%s trigger=%#x window=[%#x,%#x) completed=%v\n",
		stage, st.TriggerPC, st.WindowLo, st.WindowHi, st.Completed)
	fmt.Fprintf(h, "encode %q\n", st.EncodeLines)
	to, eto := 0, 0
	for _, p := range st.TriggerTrains {
		to += p.TrainInsts + p.PadInsts
		eto += p.TrainInsts
	}
	fmt.Fprintf(h, "TO=%d ETO=%d\n", to, eto)
	digestPacket(h, st.Transient)
	for _, p := range st.TriggerTrains {
		digestPacket(h, p)
	}
	for _, p := range st.WindowTrains {
		digestPacket(h, p)
	}
}

func digestPacket(h hash.Hash, p *swapmem.Packet) {
	if p == nil {
		fmt.Fprintf(h, "packet <nil>\n")
		return
	}
	img := p.Image
	fmt.Fprintf(h, "packet %s kind=%v entry=%#x train=%d pad=%d base=%#x\n",
		p.Name, p.Kind, p.Entry, p.TrainInsts, p.PadInsts, img.Base)
	h.Write(img.Bytes())
	names := make([]string, 0, len(img.Labels))
	for name := range img.Labels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "\nlabel %s=%#x", name, img.Labels[name])
	}
	fmt.Fprintln(h)
}
