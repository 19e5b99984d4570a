package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"dejavuzz"
	"dejavuzz/internal/core"
	"dejavuzz/internal/corpus"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/isadiff"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/triage"
	"dejavuzz/internal/uarch"
)

// warmCampaignID is the ID the server gives the measured campaign on a copy
// of the donor state, whose own campaign is c1; replays into donor copies
// record occurrences under it, as the server does.
const warmCampaignID = "c2"

// Replay sampling: the phase replay covers every recorded seed (so its
// simulation count must equal the campaign's), the simulator- and
// generator-level replays every stride-th seed.
const (
	simStride = 8
	genStride = 8
)

// span is one timed call at a layer boundary. Parent is the id of the span
// that caused it (0 for roots).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the rep's tracer started
	Dur    float64 `json:"dur_us"`
}

// tracer keeps a rep's spans in memory until the rep ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []time.Time // start of each span, indexed by id-1
}

// begin opens a span caused by parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: float64(now.Sub(t.t0).Nanoseconds()) / 1e3,
	})
	t.open = append(t.open, now)
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	d := now.Sub(t.open[id-1])
	t.spans[id-1].Dur = float64(d.Nanoseconds()) / 1e3
	return d
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// call is one ShardPipeline.RunIteration the tracing target observed.
type call struct {
	iter int
	seed gen.Seed
	dur  time.Duration
}

// recorder collects the calls of one traced campaign; parent is the
// campaign's span.
type recorder struct {
	tr     *tracer
	parent int
	mu     sync.Mutex
	calls  []call
}

// tracingTarget wraps a registered target: it delegates everything and
// records the seed and duration of every RunIteration. It only observes,
// so a campaign run through it must match the plain target exactly.
type tracingTarget struct {
	core.Target
	rec *recorder
}

func (t tracingTarget) Name() string { return "traced-" + t.Target.Name() }

func (t tracingTarget) NewPipeline(f *core.Fuzzer) core.Pipeline {
	return tracingPipeline{Pipeline: t.Target.NewPipeline(f), rec: t.rec}
}

type tracingPipeline struct {
	core.Pipeline
	rec *recorder
}

func (p tracingPipeline) NewShard() core.ShardPipeline {
	return &tracingShard{inner: p.Pipeline.NewShard(), rec: p.rec}
}

type tracingShard struct {
	inner core.ShardPipeline
	rec   *recorder
}

func (s *tracingShard) RunIteration(iter int, seed gen.Seed, sink core.CovSink) core.Outcome {
	id := s.rec.tr.begin("pipeline.run_iteration", s.rec.parent)
	out := s.inner.RunIteration(iter, seed, sink)
	d := s.rec.tr.end(id)
	s.rec.mu.Lock()
	s.rec.calls = append(s.rec.calls, call{iter: iter, seed: seed, dur: d})
	s.rec.mu.Unlock()
	return out
}

// runtimeSample reads the Go runtime counters the ledger reports.
type runtimeSample struct{ allocs, bytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

// mean is sum/n, 0 when n is 0 (a layer the workload never entered).
func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// warmStart resolves the server workload's warm-start set exactly as the
// server does, on a copy of the donor corpus, and returns the campaign
// option carrying it together with the open copy (the caller closes it).
// Engine workloads start cold: no option, no store.
func warmStart(tr *tracer, layers map[string]float64, wl workload, seed int64, dir, donor string) ([]dejavuzz.Option, *corpus.Store, error) {
	if !wl.server {
		return nil, nil, nil
	}
	stateDir := filepath.Join(dir, "donor-copy")
	if err := copyTree(donor, stateDir); err != nil {
		return nil, nil, err
	}
	sp := tr.begin("corpus.open", 0)
	cst, err := corpus.Open(filepath.Join(stateDir, "corpus"))
	d := tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	layers["corpus.open_ms"] = d.Seconds() * 1e3
	sp = tr.begin("corpus.warm_start", 0)
	ws := cst.WarmStart(wl.target, fingerprint(wl), dejavuzz.Scenarios(), seed, 0)
	layers["corpus.warmstart_ms"] = tr.end(sp).Seconds() * 1e3
	layers["corpus.warm_seeds"] = float64(len(ws.Seeds))
	opt := dejavuzz.WithWarmStart(dejavuzz.WarmStart{Snapshot: ws.Snapshot, Seeds: ws.Seeds, Prior: ws.Prior})
	return []dejavuzz.Option{opt}, cst, nil
}

// fingerprint is the corpus class the workload's campaigns harvest into.
func fingerprint(wl workload) string {
	return corpus.Fingerprint(wl.target, gen.VariantDerived, false)
}

// plainRep is the untraced partner of a traced rep: the same engine
// campaign (warm-started from the donor corpus on the server workload) on
// the plain target, in its own fresh process. It gives the baseline for
// the tracing overhead and the Go runtime counters.
func plainRep(wl workload, seed int64, dir, donor string) repResult {
	extra, cst, err := warmStart(&tracer{t0: time.Now()}, map[string]float64{}, wl, seed, dir, donor)
	if err != nil {
		return repResult{Err: err.Error()}
	}
	if cst != nil {
		cst.Close()
	}
	res := engineRep(wl, seed, extra...)
	if !wl.server {
		// The server workload's time to coverage is the client's view of
		// the server campaign, measured in the traced rep.
		res.Layers["campaign.time_to_cov_s"] = res.TTCS
	}
	return res
}

// tracedRep runs a workload's campaign through the tracing target, then
// replays the recorded seeds through each layer's public functions, timing
// every call from outside. The traced campaign is the first thing the
// process runs, as the plain campaign is in plainRep.
func tracedRep(wl workload, seed int64, dir, donor, spansPath string) repResult {
	res := repResult{Iterations: wl.iterations, Layers: map[string]float64{}}
	layers := res.Layers
	for _, m := range perLayer {
		layers[m.Name] = 0
	}
	fail := func(err error) repResult {
		res.Err = err.Error()
		return res
	}
	tr := &tracer{t0: time.Now()}
	extra, cst, err := warmStart(tr, layers, wl, seed, dir, donor)
	if err != nil {
		return fail(err)
	}
	if cst != nil {
		defer cst.Close()
	}
	opts := campaignOptions(seed, wl.iterations, extra...)
	n := float64(wl.iterations)

	base, err := core.LookupTarget(wl.target)
	if err != nil {
		return fail(err)
	}
	rec := &recorder{tr: tr, parent: tr.begin("campaign", 0)}
	tt := tracingTarget{Target: base, rec: rec}
	core.RegisterTarget(tt)
	traced, err := runCampaign(tt.Name(), opts)
	tr.end(rec.parent)
	if err != nil {
		return fail(err)
	}
	rep := traced.report
	res.Det = summarize(wl.target, rep)
	res.WallS = traced.wall.Seconds()
	res.CPUS = traced.cpu
	res.TTCS = timeToCoverage(traced.epochs, rep.Coverage)
	res.Checks = checkReport(rep, traced.epochs, wl.iterations)
	layers["trace.iters_per_s"] = n / traced.wall.Seconds()
	layers["triage.bugs"] = float64(res.Det.Bugs)
	layers["campaign.findings"] = float64(res.Det.Findings)

	calls := rec.calls
	sort.Slice(calls, func(i, j int) bool { return calls[i].iter < calls[j].iter })
	if len(calls) != wl.iterations {
		res.Checks = append(res.Checks, fmt.Sprintf("tracing target saw %d iterations, want %d", len(calls), wl.iterations))
	}
	var inPipeline time.Duration
	seeds := make([]gen.Seed, len(calls))
	for i, c := range calls {
		inPipeline += c.dur
		seeds[i] = c.seed
	}
	layers["pipeline.us_per_iter"] = us(inPipeline) / n
	layers["engine.self_ms"] = (traced.wall - inPipeline).Seconds() * 1e3
	layers["engine.pipeline_share"] = inPipeline.Seconds() / traced.wall.Seconds()

	if wl.target == isadiff.TargetName {
		layers["isasim.us_per_iter"] = layers["pipeline.us_per_iter"]
		replayArchReset(tr, layers, seeds)
	} else {
		res.Checks = append(res.Checks, replayPhases(tr, layers, base, seed, seeds, rep)...)
		if err := replaySims(tr, layers, base, seeds); err != nil {
			res.Checks = append(res.Checks, err.Error())
		}
	}
	replayGen(tr, layers, seeds)

	if wl.server {
		if err := replayTriage(tr, layers, wl, seed, filepath.Join(dir, "triage"), donor, rep.Findings); err != nil {
			return fail(err)
		}
		if err := replayHarvest(tr, layers, cst, wl.target, fingerprint(wl), traced.harvest); err != nil {
			return fail(err)
		}
		srv := serverRep(wl, seed, filepath.Join(dir, "server"), donor)
		if srv.Err != "" {
			return fail(fmt.Errorf("server rep: %s", srv.Err))
		}
		res.Checks = append(res.Checks, srv.Checks...)
		if srv.Det != res.Det {
			res.Checks = append(res.Checks, fmt.Sprintf("server campaign %+v differs from the traced engine campaign %+v", srv.Det, res.Det))
		}
		for k, v := range srv.Layers {
			layers[k] = v
		}
		layers["campaign.time_to_cov_s"] = srv.TTCS
	}
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return fail(err)
		}
	}
	return res
}

// phaseStats accumulates the phase replay's per-phase time, simulations
// and calls, and the outcomes behind the useful-to-attempt ratios.
type phaseStats struct {
	dur                                 [3]time.Duration
	sims, calls                         [3]int
	trig, kept, trains, gains, findings int
}

// replayIteration runs one seed through Phase1/2/3 exactly as the uarch
// pipeline's RunIteration sequences them, timing each phase.
func (ps *phaseStats) replayIteration(tr *tracer, f *core.Fuzzer, sd gen.Seed, parent int) {
	sp := tr.begin("core.phase1", parent)
	p1, err := f.Phase1(sd)
	ps.dur[0] += tr.end(sp)
	ps.calls[0]++
	if err != nil {
		return
	}
	ps.sims[0] += p1.Sims
	if !p1.Triggered {
		return
	}
	ps.trig++
	for _, k := range p1.Keep {
		ps.trains++
		if k {
			ps.kept++
		}
	}
	sp = tr.begin("core.phase2", parent)
	p2, err := f.Phase2(p1)
	ps.dur[1] += tr.end(sp)
	ps.calls[1]++
	if err != nil {
		return
	}
	ps.sims[1] += p2.Sims
	if !p2.TaintGain {
		return
	}
	ps.gains++
	sp = tr.begin("core.phase3", parent)
	p3, err := f.Phase3(p1, p2)
	ps.dur[2] += tr.end(sp)
	ps.calls[2]++
	if err != nil {
		return
	}
	ps.sims[2] += p3.Sims
	if p3.Finding != nil {
		ps.findings++
	}
}

// replayPhases replays every recorded seed through Fuzzer.Phase1/2/3 and
// checks the replay spent exactly the campaign's simulations and found its
// findings.
func replayPhases(tr *tracer, layers map[string]float64, t core.Target, seed int64, seeds []gen.Seed, rep *dejavuzz.Report) []string {
	o := core.DefaultOptionsFor(t)
	o.Seed = seed
	f := core.NewFuzzer(o)
	var ps phaseStats
	for _, sd := range seeds {
		it := tr.begin("replay.iteration", 0)
		ps.replayIteration(tr, f, sd, it)
		tr.end(it)
	}
	n := float64(len(seeds))
	for p := 0; p < 3; p++ {
		layers[fmt.Sprintf("p%d.us_per_iter", p+1)] = us(ps.dur[p]) / n
		layers[fmt.Sprintf("p%d.sims_per_iter", p+1)] = float64(ps.sims[p]) / n
	}
	layers["p1.trigger_rate"] = mean(float64(ps.trig), ps.calls[0])
	layers["p1.train_kept_ratio"] = mean(float64(ps.kept), ps.trains)
	layers["p2.taint_gain_rate"] = mean(float64(ps.gains), ps.calls[1])
	layers["p3.finding_rate"] = mean(float64(ps.findings), ps.calls[2])

	var bad []string
	if total := ps.sims[0] + ps.sims[1] + ps.sims[2]; total != rep.Sims {
		bad = append(bad, fmt.Sprintf("phase replay spent %d sims, campaign %d", total, rep.Sims))
	}
	if ps.findings != len(rep.Findings) {
		bad = append(bad, fmt.Sprintf("phase replay found %d findings, campaign %d", ps.findings, len(rep.Findings)))
	}
	return bad
}

// replaySims replays every simStride-th seed through the execution
// context's single and differential runs, with the per-cycle taint census
// on and off over the same schedule, and times DUT reset on a long-lived
// instance.
func replaySims(tr *tracer, layers map[string]float64, t core.Target, seeds []gen.Seed) error {
	o := core.DefaultOptionsFor(t)
	cfg := uarch.ConfigFor(t.Kind())
	g := gen.New(0)
	x := core.NewExecContext()
	space := swapmem.NewSpace(core.DefaultSecret)
	dut := uarch.NewCore(cfg, space, uarch.IFTOff)
	rt := swapmem.NewRuntime(dut, space, &swapmem.Schedule{})

	var single, diffOn, diffOff, spaceReset, coreReset time.Duration
	var singles, diffs, singleCycles, diffCycles int
	for i := 0; i < len(seeds); i += simStride {
		st, err := g.BuildStimulus(seeds[i])
		if err != nil {
			continue
		}
		cst, err := g.CompleteWindow(st)
		if err != nil {
			continue
		}
		sched := st.BuildSchedule(nil)
		sp := tr.begin("core.run_single", 0)
		run := x.RunSingle(sched, core.RunOpts{Cfg: cfg, Mode: uarch.IFTOff, MaxCycles: o.MaxCycles})
		single += tr.end(sp)
		singles++
		singleCycles += run.Core.Cycle

		// The same schedule with the per-cycle census on and off; the order
		// alternates so neither side always runs on warm caches.
		dsched := cst.BuildSchedule(nil)
		diff := func(census bool) (time.Duration, int) {
			name := "core.run_diff_untraced"
			if census {
				name = "core.run_diff"
			}
			sp := tr.begin(name, 0)
			run := x.RunDiff(dsched, core.RunOpts{Cfg: cfg, Mode: uarch.IFTDiff, TaintTrace: census, MaxCycles: o.MaxCycles})
			return tr.end(sp), run.Pair.A.Cycle
		}
		var on, off time.Duration
		var cycles, offCycles int
		if diffs%2 == 0 {
			on, cycles = diff(true)
			off, offCycles = diff(false)
		} else {
			off, offCycles = diff(false)
			on, cycles = diff(true)
		}
		if offCycles != cycles {
			return fmt.Errorf("census on/off runs took %d vs %d cycles", cycles, offCycles)
		}
		diffOn += on
		diffOff += off
		diffs++
		diffCycles += cycles

		// Reset a long-lived DUT the way an execution context does, then
		// run it so the next reset starts from a used state.
		sp = tr.begin("swapmem.reset_space", 0)
		swapmem.ResetSpace(space, core.DefaultSecret)
		spaceReset += tr.end(sp)
		sp = tr.begin("uarch.core_reset", 0)
		dut.Reset(cfg, space, uarch.IFTOff)
		coreReset += tr.end(sp)
		rt.Rebind(dut, space, sched)
		rt.Start()
		dut.Run(o.MaxCycles)
	}
	layers["sim.single_us"] = mean(us(single), singles)
	layers["sim.diff_us"] = mean(us(diffOn), diffs)
	layers["sim.cycles_per_sim"] = mean(float64(singleCycles+diffCycles), singles+diffs)
	if c := singleCycles + diffCycles; c > 0 {
		layers["sim.ns_per_cycle"] = float64((single + diffOn).Nanoseconds()) / float64(c)
	}
	if diffCycles > 0 {
		layers["uarch.census_ns_per_cycle"] = float64((diffOn - diffOff).Nanoseconds()) / float64(diffCycles)
	}
	layers["uarch.reset_us"] = mean(us(coreReset), diffs)
	layers["swapmem.reset_us"] = mean(us(spaceReset), diffs)
	return nil
}

// replayArchReset times swapmem.ResetSpace on the isasim workload, which
// resets one address space per architectural run and has no uarch core.
func replayArchReset(tr *tracer, layers map[string]float64, seeds []gen.Seed) {
	g := gen.New(0)
	space := swapmem.NewSpace(core.DefaultSecret)
	var total time.Duration
	n := 0
	for i := 0; i < len(seeds); i += simStride {
		st, err := g.BuildStimulus(seeds[i])
		if err != nil {
			continue
		}
		// Dirty the space the way a run does: load the stimulus' packets.
		for _, step := range st.BuildSchedule(nil).Steps {
			img := step.Packet.Image
			space.WriteRaw(img.Base, img.Bytes())
		}
		sp := tr.begin("swapmem.reset_space", 0)
		swapmem.ResetSpace(space, core.DefaultSecret)
		total += tr.end(sp)
		n++
	}
	layers["swapmem.reset_us"] = mean(us(total), n)
}

// replayGen times the generator's three stimulus constructions on every
// genStride-th recorded seed.
func replayGen(tr *tracer, layers map[string]float64, seeds []gen.Seed) {
	g := gen.New(0)
	var build, complete, sanitize time.Duration
	var nb, nc, ns int
	for i := 0; i < len(seeds); i += genStride {
		sp := tr.begin("gen.build_stimulus", 0)
		st, err := g.BuildStimulus(seeds[i])
		d := tr.end(sp)
		if err != nil {
			continue
		}
		build += d
		nb++
		sp = tr.begin("gen.complete_window", 0)
		cst, err := g.CompleteWindow(st)
		d = tr.end(sp)
		if err != nil {
			continue
		}
		complete += d
		nc++
		sp = tr.begin("gen.sanitized", 0)
		_, err = g.Sanitized(cst)
		d = tr.end(sp)
		if err != nil {
			continue
		}
		sanitize += d
		ns++
	}
	layers["gen.build_us"] = mean(us(build), nb)
	layers["gen.complete_us"] = mean(us(complete), nc)
	layers["gen.sanitize_us"] = mean(us(sanitize), ns)
}

// replayTriage replays the campaign's finding stream through
// triage.Store.Add one finding at a time, as the server does, on a copy of
// the donor store.
func replayTriage(tr *tracer, layers map[string]float64, wl workload, seed int64, dir, donor string, findings []core.Finding) error {
	data, err := os.ReadFile(filepath.Join(donor, "findings.json"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "findings.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	st, err := triage.Open(path)
	if err != nil {
		return err
	}
	var total time.Duration
	var written int64
	for _, f := range findings {
		sp := tr.begin("triage.add", 0)
		_, _, err := st.Add(warmCampaignID, wl.target, seed, f)
		total += tr.end(sp)
		if err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		written += fi.Size()
	}
	layers["triage.add_us"] = mean(us(total), len(findings))
	layers["triage.bytes_per_add"] = mean(float64(written), len(findings))
	return nil
}

// replayHarvest replays the campaign's per-barrier corpus harvests into a
// copy of the donor corpus, as the server does at every epoch event.
func replayHarvest(tr *tracer, layers map[string]float64, cst *corpus.Store, target, fp string, batches [][]dejavuzz.HarvestedSeed) error {
	var total time.Duration
	n := 0
	for _, b := range batches {
		if len(b) == 0 {
			continue
		}
		sp := tr.begin("corpus.harvest", 0)
		_, err := cst.Harvest(warmCampaignID, target, fp, b)
		total += tr.end(sp)
		if err != nil {
			return err
		}
		n++
	}
	layers["corpus.harvest_us"] = mean(us(total), n)
	return nil
}
