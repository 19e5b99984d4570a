package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/uarch"
)

// censusPinPath holds sha256 digests recorded with the full-scan taint
// census (every ROB entry, register, queue slot, cache word, TLB and
// predictor entry rescanned on every cycle).
var censusPinPath = filepath.Join("testdata", "census_pin.golden")

// TestCensusGoldenPin pins campaign reports and traced taint observables to
// digests recorded with the full-scan census. The reuse-vs-fresh and
// Workers-invariance suites compare two runs of the same census code, so a
// census bug both runs share passes them; this test compares against
// recorded output instead. It covers a 256-iteration campaign per uarch
// target (seed 42, wall-clock fields zeroed) and one traced RunDiff per
// scenario family and target (TaintLog, TaintSumByCycle and the final
// census and sinks of instance A).
func TestCensusGoldenPin(t *testing.T) {
	var got []string
	for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
		opts := DefaultOptions(kind)
		opts.Seed = 42
		opts.Iterations = 256
		rep := NewFuzzer(opts).Run()
		rep.Duration, rep.FirstBug = 0, 0
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("report/%s %x", kind, sha256.Sum256(b)))
	}
	for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
		for _, fam := range scenario.Names() {
			got = append(got, fmt.Sprintf("rundiff/%s/%s %s", kind, fam, tracedRunDigest(t, kind, fam)))
		}
	}

	want, err := os.ReadFile(censusPinPath)
	if err != nil {
		t.Fatal(err)
	}
	gotText := strings.Join(got, "\n") + "\n"
	if gotText != string(want) {
		t.Errorf("census observables drifted from %s\n--- got ---\n%s--- want ---\n%s", censusPinPath, gotText, want)
	}
}

// tracedRunDigest runs one scenario family's completed stimulus (seed 42,
// all training kept) through a traced differential run and digests what
// the pipeline reads off instance A.
func tracedRunDigest(t *testing.T, kind uarch.CoreKind, fam string) string {
	t.Helper()
	g := gen.New(42)
	seed, err := g.SeedScenario(kind, fam)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.BuildStimulus(seed)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := g.CompleteWindow(st)
	if err != nil {
		t.Fatal(err)
	}
	run := RunDiff(cst.BuildSchedule(nil), RunOpts{Cfg: uarch.ConfigFor(kind), Mode: uarch.IFTDiff, TaintTrace: true})
	a := run.Pair.A
	h := sha256.New()
	for _, s := range a.Trace.TaintLog {
		fmt.Fprintf(h, "%d %s %d %d\n", s.Cycle, s.Module, s.Tainted, s.Bits)
	}
	fmt.Fprintf(h, "sums %v\n", a.Trace.TaintSumByCycle)
	fmt.Fprintf(h, "census %v\n", a.Census())
	fmt.Fprintf(h, "sinks %v\n", a.Sinks())
	return fmt.Sprintf("%x", h.Sum(nil))
}
