// Package gen is DejaVuzz's stimulus sampler and mutator: a deterministic
// front-end over the scenario registry (internal/scenario). The registry
// owns what a transient-window workload *is* — entry setup, trigger/window
// layout, secret access, encode gadget, derived training, capability flags —
// while this package owns how campaigns draw from it:
//
//   - seed sampling, uniform (RandomSeed) or through a coverage-adaptive
//     scenario scheduler (ScheduledSeed),
//   - structured mutation operators over the seed space — swap scenario,
//     swap encoder, perturb window, splice training — each guaranteed to
//     change the seed (no wasted re-roll iterations),
//   - deterministic per-shard/per-epoch RNG stream derivation, and
//   - stimulus materialisation: assembling a seed's scenario into swapMem
//     packets (transient, trigger-training, window-training), including the
//     DejaVuzz* random-training ablation and Phase 3's encode sanitisation.
package gen

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// TriggerType re-exports the scenario package's legacy trigger taxonomy;
// see the migration notes in the README. New code should address scenario
// families by name.
type TriggerType = scenario.TriggerType

// The legacy trigger classes, re-exported.
const (
	TrigAccessFault   = scenario.TrigAccessFault
	TrigPageFault     = scenario.TrigPageFault
	TrigMisalign      = scenario.TrigMisalign
	TrigIllegal       = scenario.TrigIllegal
	TrigMemDisambig   = scenario.TrigMemDisambig
	TrigBranchMispred = scenario.TrigBranchMispred
	TrigJumpMispred   = scenario.TrigJumpMispred
	TrigReturnMispred = scenario.TrigReturnMispred

	NumTriggerTypes = scenario.NumTriggerTypes
)

// AllTriggerTypes lists every legacy trigger class.
func AllTriggerTypes() []TriggerType { return scenario.AllTriggerTypes() }

// Variant selects the training-generation strategy.
type Variant int

const (
	// VariantDerived is DejaVuzz proper: training derived from the transient
	// packet's execution information.
	VariantDerived Variant = iota
	// VariantRandom is the DejaVuzz* ablation: swapMem isolation but random,
	// underived training instructions.
	VariantRandom
)

func (v Variant) String() string {
	if v == VariantRandom {
		return "DejaVuzz*"
	}
	return "DejaVuzz"
}

// Seed holds the configuration entropy for one stimulus (the corpus unit).
type Seed struct {
	Core uarch.CoreKind
	// Scenario names the registered scenario family. Empty selects the
	// canonical family for Trigger (pre-scenario seeds keep replaying).
	Scenario string `json:",omitempty"`
	// Trigger is the scenario's legacy trigger class; kept in the seed so
	// findings, triage and pre-scenario consumers keep a stable taxonomy.
	Trigger TriggerType
	Variant Variant
	Rand    int64

	TriggerOff   int  // pad-nop count before the trigger instruction
	WindowLen    int  // dummy-window length in instructions
	EncodeOps    int  // number of encode gadgets in Phase 2
	Encoder      int  `json:",omitempty"` // 0 = draw per op, k>0 = pin gadget k-1
	MaskHigh     bool // mask high address bits in the secret access (MDS probing)
	SecretFaults bool // Meltdown-type: secret access itself faults
	StoreFlavor  bool // use a store for fault-type triggers
}

// params projects the seed's knobs into the scenario build parameters.
func (s Seed) params() scenario.Params {
	return scenario.Params{
		TriggerOff:   s.TriggerOff,
		WindowLen:    s.WindowLen,
		EncodeOps:    s.EncodeOps,
		Encoder:      s.Encoder,
		MaskHigh:     s.MaskHigh,
		SecretFaults: s.SecretFaults,
		StoreFlavor:  s.StoreFlavor,
	}
}

// FamilyOf resolves the seed's scenario family: its named family, or the
// canonical family of its legacy trigger class when unnamed. Hand-crafted
// seeds (repro JSON) can carry anything, so both paths error instead of
// panicking.
func FamilyOf(s Seed) (scenario.Scenario, error) {
	if s.Scenario == "" {
		if s.Trigger < 0 || s.Trigger >= NumTriggerTypes {
			return nil, fmt.Errorf("gen: seed trigger %v has no scenario family", s.Trigger)
		}
		return scenario.ByTrigger(s.Trigger), nil
	}
	return scenario.Lookup(s.Scenario)
}

// ScenarioName returns the seed's effective family name (canonical when the
// seed predates named scenarios; the raw trigger rendering for seeds whose
// trigger class does not exist).
func ScenarioName(s Seed) string {
	if s.Scenario != "" {
		return s.Scenario
	}
	if s.Trigger < 0 || s.Trigger >= NumTriggerTypes {
		return s.Trigger.String()
	}
	return scenario.ByTrigger(s.Trigger).Name()
}

// Generator produces seeds and stimuli deterministically from its RNG.
// A Generator also owns the scratch buffers stimulus construction
// materialises assembly into, so one long-lived Generator per shard makes
// stimulus building allocation-light; those buffers make a Generator
// single-goroutine (campaign shards each own one).
type Generator struct {
	// rng draws seeds and mutations. Its source is an output-identical
	// derivSource, so the per-epoch Reseed is O(1).
	rng *rand.Rand
	src derivSource

	// scenarios is the enabled family set mutation's swap-scenario operator
	// draws from (sorted; nil selects every registered family, whose sorted
	// names allFams caches on first use).
	scenarios []string
	allFams   []string
	// lines/setup/body are the assembly-materialisation scratch buffers
	// reused across packet builds (valid only within one build call);
	// trainSpecs is the recycled training-spec slice the family hooks
	// append into.
	lines      []string
	setup      []string
	body       []string
	trainSpecs []scenario.Training
	// brng is the per-stimulus derivation RNG, reseeded from Seed.Rand for
	// every build (so builds stay pure functions of the seed); bsrc is its
	// lazily seeded source.
	brng *rand.Rand
	bsrc derivSource
	// asm assembles every packet the generator builds, memoising the small
	// closed set of lines stimuli are made of.
	asm *isa.Assembler
	// trainCache memoises derived training packets, which are pure
	// functions of (packet name, body, trigger offset) — a campaign draws
	// them from a small closed set, so most rebuilds are cache hits.
	// Cached packets are shared read-only across stimuli, exactly like a
	// rebuilt packet is shared between a stimulus and its completed copy.
	trainCache map[string]*swapmem.Packet
	// keyBuf is the reused buffer training-cache keys are built in.
	keyBuf []byte
}

// New returns a generator with the given RNG seed.
func New(seed int64) *Generator {
	g := &Generator{asm: isa.NewAssembler()}
	g.rng = rand.New(&g.src)
	g.rng.Seed(seed)
	return g
}

// Reseed returns the generator's RNG to the state New(seed) produces,
// keeping the generator's scratch buffers and scenario set. Equivalent to
// replacing the generator with a fresh one — without the allocation.
func (g *Generator) Reseed(seed int64) {
	g.rng.Seed(seed)
}

// SetScenarios restricts the family set the swap-scenario mutation operator
// draws from (the campaign's -scenarios filter). Names are copied and
// sorted; an empty set restores the default (every registered family).
func (g *Generator) SetScenarios(names []string) {
	if len(names) == 0 {
		g.scenarios = nil
		return
	}
	g.scenarios = append(g.scenarios[:0], names...)
	sort.Strings(g.scenarios)
}

// enabledScenarios returns the mutation family set.
func (g *Generator) enabledScenarios() []string {
	if g.scenarios != nil {
		return g.scenarios
	}
	if g.allFams == nil {
		// Families register at init time, so the set never changes after.
		g.allFams = scenario.Names()
	}
	return g.allFams
}

// buildRand returns the generator's reusable derivation RNG seeded to the
// state rand.New(rand.NewSource(seed)) produces. Its source is the lazily
// seeded derivSource, so reseeding costs O(1) rather than math/rand's 1841
// seeding steps.
func (g *Generator) buildRand(seed int64) *rand.Rand {
	if g.brng == nil {
		g.brng = rand.New(&g.bsrc)
	}
	g.brng.Seed(seed)
	return g.brng
}

// splitMix64 is the SplitMix64 finaliser, used to derive statistically
// independent per-shard streams from one campaign seed.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardSeed derives the RNG seed for one shard of a campaign: shards of the
// same campaign get decorrelated streams, and the mapping depends only on
// (campaign seed, shard id) — never on worker count or scheduling.
func ShardSeed(campaignSeed int64, shard int) int64 {
	return int64(splitMix64(uint64(campaignSeed)*0x9e3779b97f4a7c15 + uint64(shard) + 1))
}

// EpochShardSeed derives the RNG seed for one (shard, epoch) cell of a
// campaign. Seeding shard generators per epoch (rather than once per
// campaign) makes a merge barrier a complete cut point: the stimulus stream
// after barrier k depends only on (campaign seed, shard id, epoch index) and
// the barrier-merged state, so a campaign checkpointed at a barrier resumes
// byte-identically without serialising RNG internals.
func EpochShardSeed(campaignSeed int64, shard, epoch int) int64 {
	return int64(splitMix64(uint64(ShardSeed(campaignSeed, shard)) + splitMix64(uint64(epoch)+0x51ed)))
}

// NewEpochShard returns the deterministic generator for one shard epoch.
func NewEpochShard(campaignSeed int64, shard, epoch int) *Generator {
	return New(EpochShardSeed(campaignSeed, shard, epoch))
}

// drawKnobs fills the seed's non-identity entropy from the generator's RNG.
func (g *Generator) drawKnobs(s *Seed) {
	s.Rand = g.rng.Int63()
	s.TriggerOff = 60 + g.rng.Intn(50)
	s.WindowLen = 4 + g.rng.Intn(6)
	s.EncodeOps = 1 + g.rng.Intn(3)
	s.Encoder = g.rng.Intn(scenario.NumEncoders() + 1)
	s.MaskHigh = g.rng.Intn(4) == 0
	s.SecretFaults = g.rng.Intn(2) == 0
	s.StoreFlavor = g.rng.Intn(4) == 0
}

// RandomSeed draws a fresh seed for a core, uniform over the canonical
// (legacy) trigger classes — the pre-scheduler sampling behaviour.
func (g *Generator) RandomSeed(core uarch.CoreKind) Seed {
	t := TriggerType(g.rng.Intn(int(NumTriggerTypes)))
	s := Seed{
		Core:     core,
		Scenario: scenario.ByTrigger(t).Name(),
		Trigger:  t,
		Variant:  VariantDerived,
	}
	g.drawKnobs(&s)
	return s
}

// SeedScenario draws a fresh seed for a named scenario family.
func (g *Generator) SeedScenario(core uarch.CoreKind, fam string) (Seed, error) {
	sc, err := scenario.Lookup(fam)
	if err != nil {
		return Seed{}, err
	}
	s := Seed{
		Core:     core,
		Scenario: sc.Name(),
		Trigger:  sc.Legacy(),
		Variant:  VariantDerived,
	}
	g.drawKnobs(&s)
	return s, nil
}

// ScheduledSeed draws a fresh seed with the family chosen by the campaign's
// coverage-adaptive scheduler, consuming the generator's own RNG stream so
// shard determinism is preserved.
func (g *Generator) ScheduledSeed(core uarch.CoreKind, sch *scenario.Scheduler) Seed {
	s, err := g.SeedScenario(core, sch.Pick(g.rng))
	if err != nil {
		// Scheduler families are validated at campaign construction.
		panic(fmt.Sprintf("gen: scheduled seed: %v", err))
	}
	return s
}

// SeedFor draws a seed with a fixed legacy trigger type (its canonical
// scenario family).
func (g *Generator) SeedFor(core uarch.CoreKind, t TriggerType, v Variant) Seed {
	s, _ := g.SeedScenario(core, scenario.ByTrigger(t).Name())
	s.Variant = v
	return s
}

// Mutation operator count (see Mutate).
const numMutationOps = 7

// Mutate applies one structured mutation operator to a seed — swap scenario,
// swap encoder, perturb window (length, alignment, gadget count, access
// flags) or splice training — and guarantees the result differs from the
// input: every operator re-rolls its target field onto a different value,
// so no feedback iteration is ever wasted replaying the seed it started
// from. Operators that would not change the built stimulus for the seed's
// family (swapping scenarios in a single-family campaign, swapping the
// shared-table encoder under a family with a dedicated encode block) are
// redirected to a window perturbation instead of drawing a no-op.
//
// Core and Variant are always preserved; the derivation entropy (Rand) is
// preserved by the structural operators so their effect is isolated, and
// re-rolled only by the splice-training operator.
func (g *Generator) Mutate(s Seed) Seed {
	n := s
	op := g.rng.Intn(numMutationOps)
	fams := g.enabledScenarios()
	if op == 0 && len(fams) < 2 {
		op = 2 // single-family campaigns cannot swap scenarios
	}
	if op == 1 {
		if fam, err := FamilyOf(s); err != nil || fam.Caps().OwnEncoder {
			op = 2 // the family never reads Params.Encoder
		}
	}
	switch op {
	case 0: // swap scenario: a different family from the enabled set
		cur := 0
		name := ScenarioName(s)
		for i, f := range fams {
			if f == name {
				cur = i
				break
			}
		}
		next := fams[(cur+1+g.rng.Intn(len(fams)-1))%len(fams)]
		sc, err := scenario.Lookup(next)
		if err != nil {
			panic(fmt.Sprintf("gen: mutate: %v", err))
		}
		n.Scenario = sc.Name()
		n.Trigger = sc.Legacy()
	case 1: // swap encoder: a different gadget selector
		span := scenario.NumEncoders() + 1
		n.Encoder = (s.Encoder + 1 + g.rng.Intn(span-1)) % span
	case 2: // perturb window length within [4, 12)
		n.WindowLen = 4 + (s.WindowLen-4+1+g.rng.Intn(7))%8
	case 3: // perturb trigger alignment within [60, 110)
		n.TriggerOff = 60 + (s.TriggerOff-60+1+g.rng.Intn(49))%50
	case 4: // perturb encode-gadget count within [1, 4] (mutation reaches
		// one more stacked gadget than a fresh draw, as before the registry)
		n.EncodeOps = 1 + (s.EncodeOps-1+1+g.rng.Intn(3))%4
	case 5: // flip one access flag the family actually reads: SecretFaults
		// is always live (it gates the schedule's permission update);
		// MaskHigh only matters under the shared access block; StoreFlavor
		// only for store-flavoured trigger/fault layouts. Dead flags are
		// excluded so the flip is never a stimulus no-op.
		var caps scenario.Capabilities
		if fam, err := FamilyOf(s); err == nil {
			caps = fam.Caps()
		} else {
			caps.OwnAccess = true // unknown family: only SecretFaults is safe
		}
		candidates := 1
		if !caps.OwnAccess {
			candidates++
		}
		if caps.StoreFlavored {
			candidates++
		}
		pick := g.rng.Intn(candidates)
		switch {
		case pick == 0:
			n.SecretFaults = !n.SecretFaults
		case pick == 1 && !caps.OwnAccess:
			n.MaskHigh = !n.MaskHigh
		default:
			n.StoreFlavor = !n.StoreFlavor
		}
	case 6: // splice training: fresh derivation entropy, structure kept
		for n.Rand == s.Rand {
			n.Rand = g.rng.Int63()
		}
	}
	return n
}

// Stimulus is a fully constructed swapMem test case.
type Stimulus struct {
	Seed Seed

	Transient     *swapmem.Packet
	TriggerTrains []*swapmem.Packet
	WindowTrains  []*swapmem.Packet

	TriggerPC uint64
	WindowLo  uint64
	WindowHi  uint64

	// EncodeLines is the secret-encoding block (for sanitisation); empty in
	// Phase 1 (dummy window).
	EncodeLines []string
	// Completed marks Phase 2 window completion.
	Completed bool
}

// triggerAddr computes the trigger PC for a seed.
func triggerAddr(s Seed) uint64 {
	return swapmem.SwapBase + 4*uint64(s.TriggerOff)
}

// BuildStimulus constructs the Phase-1 stimulus: transient packet with a
// dummy (nop) window plus derived or random trigger-training packets.
func (g *Generator) BuildStimulus(seed Seed) (*Stimulus, error) {
	st := &Stimulus{}
	if err := g.BuildStimulusInto(st, seed); err != nil {
		return nil, err
	}
	return st, nil
}

// BuildStimulusInto is BuildStimulus materialised into a caller-provided
// Stimulus, reusing its packet-slice capacity. The campaign engine hands
// each shard pipeline a small set of Stimulus buffers that live for the
// whole campaign; the result is only valid until the next build into the
// same buffer.
func (g *Generator) BuildStimulusInto(st *Stimulus, seed Seed) error {
	fam, err := FamilyOf(seed)
	if err != nil {
		return err // FamilyOf errors carry their own prefix
	}
	rng := g.buildRand(seed.Rand)
	trains := st.TriggerTrains[:0]
	*st = Stimulus{Seed: seed, TriggerPC: triggerAddr(seed), Transient: st.Transient}

	body := dummyWindow(seed.WindowLen)
	if err := g.buildTransient(st, fam, body); err != nil {
		return err
	}
	if seed.Variant == VariantRandom {
		st.TriggerTrains = g.randomTrainings(trains, st, rng, 6)
	} else {
		st.TriggerTrains = g.deriveTrainings(trains, st, fam, rng)
	}
	return nil
}

// nopLines backs dummyWindow: callers only ever read the slice, so one
// shared table serves every build.
var nopLines = func() []string {
	out := make([]string, 128)
	for i := range out {
		out[i] = "nop"
	}
	return out
}()

// dummyWindow is Phase 1's placeholder payload (read-only).
func dummyWindow(n int) []string {
	if n <= len(nopLines) {
		return nopLines[:n]
	}
	out := make([]string, n)
	for i := range out {
		out[i] = "nop"
	}
	return out
}

// buildTransient assembles the transient packet for the seed's scenario
// family with the given window body, filling in TriggerPC/WindowLo/WindowHi.
// The assembly lines are materialised into the generator's scratch buffer
// and the packet struct is reused when the stimulus already carries one.
func (g *Generator) buildTransient(st *Stimulus, fam scenario.Scenario, windowBody []string) error {
	s := st.Seed
	p := s.params()
	T := st.TriggerPC
	lines := g.lines[:0]
	defer func() { g.lines = lines }()
	train := 0 // transient packets count no training instructions

	// --- entry setup (materialised into the setup scratch) ---
	setup := fam.Setup(g.setup[:0], p, T)
	g.setup = setup
	lines = append(lines, setup...)

	// --- padding, then jump to the trigger ---
	setupWords, err := g.asm.Count(swapmem.SwapBase, setup)
	if err != nil {
		return err
	}
	lines = append(lines, "j trig")
	pad := s.TriggerOff - setupWords - 1
	if pad < 0 {
		return fmt.Errorf("gen: trigger offset %d too small for %d setup words", s.TriggerOff, setupWords)
	}
	lines = append(lines, dummyWindow(pad)...)

	// --- trigger and window layout (appended straight into the scratch) ---
	lines = append(lines, "trig:")
	var winOff, winLen int
	lines, winOff, winLen = fam.Window(lines, p, windowBody)
	st.WindowLo = T + 4*uint64(winOff)
	st.WindowHi = st.WindowLo + 4*uint64(winLen)

	img, err := g.asm.Assemble(swapmem.SwapBase, lines)
	if err != nil {
		return fmt.Errorf("gen: transient packet: %w", err)
	}
	if st.Transient == nil {
		st.Transient = &swapmem.Packet{}
	}
	*st.Transient = swapmem.Packet{
		Name:       "transient",
		Kind:       swapmem.PacketTransient,
		Image:      img,
		Entry:      swapmem.SwapBase,
		TrainInsts: train,
		PadInsts:   pad,
	}
	return nil
}

// cachedTrainingPacket is trainingPacket behind the generator's memo table.
// A derived training packet is a pure function of (name, setup, body,
// trigger offset), and derived trainings draw from a small closed set of
// bodies, so campaigns hit the cache on almost every rebuild. Random
// (DejaVuzz*) trainings bypass this — their bodies are rng-unique.
func (g *Generator) cachedTrainingPacket(name string, st *Stimulus, setup, body []string) (*swapmem.Packet, error) {
	key := append(g.keyBuf[:0], name...)
	key = append(key, '|')
	key = strconv.AppendInt(key, int64(st.Seed.TriggerOff), 10)
	for _, l := range setup {
		key = append(key, '|')
		key = append(key, l...)
	}
	key = append(key, '#')
	for _, l := range body {
		key = append(key, '|')
		key = append(key, l...)
	}
	g.keyBuf = key
	if p, ok := g.trainCache[string(key)]; ok {
		return p, nil
	}
	p, err := g.trainingPacket(name, st, setup, body)
	if err == nil {
		if g.trainCache == nil {
			g.trainCache = make(map[string]*swapmem.Packet)
		}
		g.trainCache[string(key)] = p
	}
	return p, err
}

// trainingPacket assembles a trigger-training packet: setup, pad nops so the
// training instruction aligns with the trigger PC, the training body, and a
// terminator. Lines are materialised into the generator's scratch buffer.
func (g *Generator) trainingPacket(name string, st *Stimulus, setup, body []string) (*swapmem.Packet, error) {
	setupWords, err := g.asm.Count(swapmem.SwapBase, setup)
	if err != nil {
		return nil, err
	}
	pad := st.Seed.TriggerOff - setupWords
	if pad < 0 {
		pad = 0
	}
	lines := g.lines[:0]
	defer func() { g.lines = lines }()
	lines = append(lines, setup...)
	for i := 0; i < pad; i++ {
		lines = append(lines, "nop")
	}
	lines = append(lines, "trainpc:")
	lines = append(lines, body...)
	img, err := g.asm.Assemble(swapmem.SwapBase, lines)
	if err != nil {
		return nil, fmt.Errorf("gen: training packet %s: %w", name, err)
	}
	return &swapmem.Packet{
		Name:       name,
		Kind:       swapmem.PacketTriggerTrain,
		Image:      img,
		Entry:      swapmem.SwapBase,
		TrainInsts: len(img.Words) - pad,
		PadInsts:   pad,
	}, nil
}

// deriveTrainings implements the training derivation strategy: the scenario
// family's targeted training — whose instruction aligns with the trigger PC
// and whose control flow matches the transient window — plus decoy
// candidates that the training-reduction step is expected to discard.
// Packets are appended to dst (typically a recycled slice).
func (g *Generator) deriveTrainings(dst []*swapmem.Packet, st *Stimulus, fam scenario.Scenario, rng *rand.Rand) []*swapmem.Packet {
	out := dst
	add := func(p *swapmem.Packet, err error) {
		if err != nil {
			panic(fmt.Sprintf("gen: derived training: %v", err))
		}
		out = append(out, p)
	}
	specs := fam.Trainings(g.trainSpecs[:0], st.Seed.params(), st.WindowLo)
	g.trainSpecs = specs
	for _, tr := range specs {
		add(g.cachedTrainingPacket(tr.Name, st, tr.Setup, tr.Body))
	}

	// Decoy candidates: plausible but untargeted; training reduction should
	// eliminate them (and, for exception-type windows, everything).
	decoys := []string{"add t0, t1, s2", "sub t1, t0, s0", "mul t2, t0, t1", "andi t3, t0, 0xf"}
	rng.Shuffle(len(decoys), func(i, j int) { decoys[i], decoys[j] = decoys[j], decoys[i] })
	for i := 0; i < 2; i++ {
		add(g.cachedTrainingPacket(fmt.Sprintf("decoy-%d", i), st, nil,
			[]string{decoys[i], "ecall"}))
	}
	return out
}

// randomTrainings implements DejaVuzz*: random instructions aligned to the
// trigger PC without any derivation from transient execution information.
// Packets are appended to dst (typically a recycled slice).
func (g *Generator) randomTrainings(dst []*swapmem.Packet, st *Stimulus, rng *rand.Rand, n int) []*swapmem.Packet {
	out := dst
	for i := 0; i < n; i++ {
		var setup, body []string
		switch rng.Intn(8) {
		case 0: // random conditional branch, random small offset
			off := 8 + 4*rng.Intn(14)
			taken := rng.Intn(2) == 0
			op := "bne"
			if taken {
				op = "beq"
			}
			body = []string{
				fmt.Sprintf("%s zero, zero, %d", op, off),
				"ecall",
			}
			// Landing pads so a taken branch terminates cleanly.
			for w := 8; w <= off; w += 4 {
				if w == off {
					body = append(body, "ecall")
				} else {
					body = append(body, "nop")
				}
			}
		case 1: // random indirect jump to a random aligned address past the body
			tgt := triggerAddr(st.Seed) + 8 + uint64(4*rng.Intn(64))
			setup = []string{fmt.Sprintf("li a2, %#x", tgt)}
			body = []string{"jalr x0, 0(a2)", "ecall"}
		case 2: // random call (pushes a random return address)
			body = []string{fmt.Sprintf("call %#x", uint64(swapmem.SwapDoneAddr))}
		case 3:
			body = []string{fmt.Sprintf("ld t0, %d(t1)", 8*rng.Intn(16)), "ecall"}
			setup = []string{fmt.Sprintf("li t1, %#x", uint64(swapmem.DataBase+0x200))}
		default: // plain ALU
			ops := []string{"add t0, t1, t2", "sub t3, t4, t5", "mul t0, t0, t1",
				"xor t2, t2, t3", "andi t4, t5, 0x3f", "sll t1, t1, t0"}
			body = []string{ops[rng.Intn(len(ops))], "ecall"}
		}
		p, err := g.trainingPacket(fmt.Sprintf("rand-%d", i), st, setup, body)
		if err == nil {
			out = append(out, p)
		}
	}
	return out
}

// CompleteWindow implements Step 2.1: replace the dummy window with the
// secret-access and secret-encoding blocks, and derive window training.
func (g *Generator) CompleteWindow(st *Stimulus) (*Stimulus, error) {
	n := &Stimulus{}
	if err := g.CompleteWindowInto(n, st); err != nil {
		return nil, err
	}
	return n, nil
}

// CompleteWindowInto is CompleteWindow materialised into a caller-provided
// Stimulus (which must be distinct from st).
func (g *Generator) CompleteWindowInto(dst, st *Stimulus) error {
	fam, err := FamilyOf(st.Seed)
	if err != nil {
		return err // FamilyOf errors carry their own prefix
	}
	p := st.Seed.params()
	rng := g.buildRand(st.Seed.Rand ^ 0x5eed)
	// The encode block is retained on the stimulus (Phase 3 sanitisation
	// reads it), so it builds into the destination's own recycled buffer;
	// the access+encode window body is per-build scratch.
	encode, ok := fam.Encode(dst.EncodeLines[:0], p, rng)
	if !ok {
		encode = scenario.SharedEncode(encode, p, rng)
	}
	body := fam.Access(g.body[:0], p)
	body = append(body, encode...)
	g.body = body
	*dst = Stimulus{Seed: st.Seed, TriggerPC: st.TriggerPC, Transient: dst.Transient}
	if err := g.buildTransient(dst, fam, body); err != nil {
		return err
	}
	dst.TriggerTrains = st.TriggerTrains
	dst.EncodeLines = encode
	dst.Completed = true

	// Window training: warm the secret's cache/TLB state before training.
	// Disambiguation-class windows additionally warm the pointer slot so
	// the speculative loads complete inside the (short) ordering window.
	wt, err := windowTrainPacket(fam.Caps().WarmPointer)
	if err == nil {
		dst.WindowTrains = []*swapmem.Packet{wt}
	}
	return nil
}

// Sanitized rebuilds the transient packet with the encode block replaced by
// nops (Step 3.1's encode sanitisation).
func (g *Generator) Sanitized(st *Stimulus) (*Stimulus, error) {
	n := &Stimulus{}
	if err := g.SanitizedInto(n, st); err != nil {
		return nil, err
	}
	return n, nil
}

// SanitizedInto is Sanitized materialised into a caller-provided Stimulus
// (which must be distinct from st).
func (g *Generator) SanitizedInto(dst, st *Stimulus) error {
	fam, err := FamilyOf(st.Seed)
	if err != nil {
		return err // FamilyOf errors carry their own prefix
	}
	body := fam.Access(g.body[:0], st.Seed.params())
	body = append(body, dummyWindow(len(st.EncodeLines))...)
	g.body = body
	*dst = Stimulus{Seed: st.Seed, TriggerPC: st.TriggerPC, Transient: dst.Transient}
	if err := g.buildTransient(dst, fam, body); err != nil {
		return err
	}
	dst.TriggerTrains = st.TriggerTrains
	dst.WindowTrains = st.WindowTrains
	dst.Completed = true
	return nil
}

// accessBlock returns the seed's secret-access block (the scenario family's
// Access hook); kept as the package-level seam tests exercise.
func accessBlock(s Seed) []string {
	fam, err := FamilyOf(s)
	if err != nil {
		return nil
	}
	return fam.Access(nil, s.params())
}

// windowTrainPacket warms the secret into the data cache and TLBs, and
// optionally the disambiguation pointer slot. The two variants are
// seed-independent, so they are assembled once and shared read-only across
// all shards and campaigns.
func windowTrainPacket(warmPtr bool) (*swapmem.Packet, error) {
	i := 0
	if warmPtr {
		i = 1
	}
	c := &windowTrainCache[i]
	c.once.Do(func() { c.p, c.err = buildWindowTrainPacket(warmPtr) })
	return c.p, c.err
}

var windowTrainCache [2]struct {
	once sync.Once
	p    *swapmem.Packet
	err  error
}

func buildWindowTrainPacket(warmPtr bool) (*swapmem.Packet, error) {
	src := fmt.Sprintf("li t0, %#x\nld a1, 0(t0)\n", uint64(swapmem.SecretAddr))
	if warmPtr {
		src += fmt.Sprintf("li t0, %#x\nld a1, 0(t0)\n", uint64(swapmem.DataBase+0x300))
	}
	src += "ecall"
	img, err := isa.Asm(swapmem.SwapBase, src)
	if err != nil {
		return nil, err
	}
	return &swapmem.Packet{
		Name:       "window-train",
		Kind:       swapmem.PacketWindowTrain,
		Image:      img,
		Entry:      swapmem.SwapBase,
		TrainInsts: len(img.Words),
	}, nil
}

// BuildSchedule assembles the swap schedule: window training first, then
// trigger training (optionally masked by `keep`), then — after the secret
// permission update for Meltdown-type seeds — the transient packet.
func (st *Stimulus) BuildSchedule(keep []bool) *swapmem.Schedule {
	return st.BuildScheduleInto(&swapmem.Schedule{}, keep)
}

// BuildScheduleInto is BuildSchedule materialised into a caller-provided
// schedule, reusing its step-slice capacity. The result is valid until the
// next build into the same schedule; swap runtimes never mutate a bound
// schedule, so one buffer per pipeline suffices.
func (st *Stimulus) BuildScheduleInto(sched *swapmem.Schedule, keep []bool) *swapmem.Schedule {
	sched.Steps = sched.Steps[:0]
	for _, p := range st.WindowTrains {
		sched.Append(p)
	}
	for i, p := range st.TriggerTrains {
		if keep != nil && (i >= len(keep) || !keep[i]) {
			continue
		}
		sched.Append(p)
	}
	if st.Seed.SecretFaults {
		sched.AppendWithPerm(st.Transient, swapmem.PermUpdate{Region: "dedicated", Perm: 0})
	} else {
		sched.Append(st.Transient)
	}
	return sched
}
