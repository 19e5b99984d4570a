// Command campaignbench is the repository benchmark: it measures fuzzing
// campaigns end to end on three workloads, traces per-layer costs in a
// separate run, and checks that every deterministic output repeats.
//
// Usage (from the repository root; campaignbench/run.sh builds and runs it):
//
//	campaignbench --workload boom-cold --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	boom-cold         library campaign on the cycle-accurate BOOM model
//	isasim-cold       the same campaign loop on the architectural isasim target
//	boom-server-warm  the BOOM campaign submitted over loopback HTTP to an
//	                  in-process campaign server whose state directory a
//	                  donor campaign prepopulated; warm-started from it
//
// Every campaign rep runs in a fresh child process (this binary re-executed),
// so heap and GC state never carry over between reps and each rep's peak RSS
// belongs to it alone. The parent repeats reps until --seconds have passed
// (at least minReps) and reports medians. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it runs traced reps and prints the
// per-layer ledger, including the tracing overhead.
//
// All timings are host time. The uarch models are not validated against
// RTL or silicon, so no simulated speed-up or error figure is reported.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// A rep that errors or fails an output check counts as failed; any failure
// makes the command exit 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// childEnv marks a re-executed child process; its value is unused.
const childEnv = "CAMPAIGNBENCH_CHILD"

// heldOutSeed is the seed reserved for confirming performance claims made
// with other seeds. Do not tune against it.
const heldOutSeed = 7919

// workload is one benchmark workload's fixed configuration.
type workload struct {
	name       string
	target     string // target the campaign runs on
	iterations int    // campaign length of one rep
	server     bool   // submitted to an in-process server, warm-started
	donorIters int    // donor campaign length (server workloads)
}

var workloads = []workload{
	{name: "boom-cold", target: "boom", iterations: 1024},
	{name: "isasim-cold", target: "isasim", iterations: 8192},
	{name: "boom-server-warm", target: "boom", iterations: 1024, server: true, donorIters: 2048},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// A run's campaigns form a panel: rep i runs the campaign seeded
// panelSeed(seed, i mod panelSize). Campaign costs and coverage vary from
// seed to seed, so a panel of several campaigns keeps the run's figures
// steady across --seed values, and reps past the first panelSize repeat
// panel campaigns, which the repeat checks compare.
const panelSize = 4

// panelSeed is the campaign seed of panel member k.
func panelSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// minReps and minTracedReps are the fewest reps an untraced run and rep
// pairs a traced run make, however short --seconds is: an untraced run
// always completes the panel, whose coverage it reports, and repeats one
// panel campaign for the repeat checks.
const (
	minReps       = panelSize + 1
	minTracedReps = 2
)

// maxRunTime stops starting reps once a run has taken this long, keeping a
// run well inside the 180-second limit whatever --seconds says.
const maxRunTime = 120 * time.Second

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is a parsed parent invocation.
type config struct {
	wl      workload
	seed    int64
	seconds int
	trace   bool
	workdir string
}

func parseConfig(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measurement time")
	trace := fs.Int("trace", 0, "1 = traced per-layer run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "campaignbench"), "scratch directory")
	iters := fs.Int("iterations", 0, "override the workload's campaign length (smoke tests)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		return config{}, err
	}
	if *seconds < 0 || (*trace != 0 && *trace != 1) {
		return config{}, errors.New("--seconds must be >= 0 and --trace 0 or 1")
	}
	if *iters > 0 {
		wl.iterations = *iters
		if wl.donorIters > *iters {
			wl.donorIters = *iters
		}
	}
	return config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}, nil
}

// repResult is what one child rep reports (one JSON line on its stdout).
type repResult struct {
	Err    string   `json:"err,omitempty"`
	Checks []string `json:"checks,omitempty"` // failed output checks

	Iterations int     `json:"iterations"`
	WallS      float64 `json:"wall_s"`        // session start to Done
	TTCS       float64 `json:"time_to_cov_s"` // to the first epoch at final coverage
	SetupS     float64 `json:"setup_s"`       // median of this rep's set-up samples
	CPUS       float64 `json:"cpu_s"`         // user+sys over the timed window

	Det determinism `json:"det"`

	Layers map[string]float64 `json:"layers,omitempty"` // traced reps only

	// Filled by the parent: the child's peak RSS, the rep's panel member
	// and whether it ran through the tracing target.
	PeakRSSMiB float64 `json:"-"`
	Panel      int     `json:"-"`
	Traced     bool    `json:"-"`
}

// determinism is a rep's deterministic output: identical on every rep of
// one workload and seed, traced or not.
type determinism struct {
	Coverage int    `json:"coverage"`
	Bugs     int    `json:"bugs"`
	Findings int    `json:"findings"`
	Sims     int    `json:"sims"`
	Digest   string `json:"digest"` // findings' iterations and signatures
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseConfig(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 2
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 2
	}
	err = os.MkdirAll(cfg.workdir, 0o755)
	var workdir string
	if err == nil {
		workdir, err = os.MkdirTemp(cfg.workdir, "run-")
	}
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	defer os.RemoveAll(workdir)

	var panel []int64
	for k := 0; k < panelSize; k++ {
		panel = append(panel, panelSeed(cfg.seed, k))
	}
	env := map[string]any{
		"workload":   cfg.wl.name,
		"seed":       cfg.seed,
		"panel":      panel,
		"iterations": cfg.wl.iterations,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"trace":      cfg.trace,
		"timing":     "host time; uarch models unvalidated against RTL or silicon",
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintln(stdout, string(envLine))

	start := time.Now()
	var donor string
	if cfg.wl.server {
		donor = filepath.Join(workdir, "donor")
		if _, _, err := runChild(cfg, "donor", donor, donorSeed(cfg.seed)); err != nil {
			fmt.Fprintln(stderr, "campaignbench: donor:", err)
			return printResult(stdout, 1, 1, nil)
		}
	}

	// Untraced runs make "run" reps; traced runs alternate a "plain" rep
	// (the untraced baseline) with a "traced" one on the same campaign.
	var reps, plain []repResult
	attempted, failed := 0, 0
	rep := func(mode string, i int, into *[]repResult) {
		attempted++
		k := i % panelSize
		res, err := runRep(cfg, mode, donor, workdir, i, panelSeed(cfg.seed, k))
		if err != nil {
			res.Err = err.Error()
		}
		if res.Err != "" || len(res.Checks) > 0 {
			failed++
			fmt.Fprintf(stderr, "campaignbench: %s rep %d failed: %s %v\n", mode, i, res.Err, res.Checks)
			return
		}
		res.Panel, res.Traced = k, mode == "traced"
		fmt.Fprintf(stderr, "campaignbench: %s rep %d (panel %d): %.1f iter/s, coverage %d, %.1f MiB\n",
			mode, i, k, float64(res.Iterations)/res.WallS, res.Det.Coverage, res.PeakRSSMiB)
		*into = append(*into, res)
	}
	need := minReps
	if cfg.trace {
		need = minTracedReps
	}
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if i >= need && (elapsed >= time.Duration(cfg.seconds)*time.Second || elapsed >= maxRunTime) {
			break
		}
		if cfg.trace {
			rep("plain", i, &plain)
			rep("traced", i, &reps)
		} else {
			rep("run", i, &reps)
		}
	}

	// Repeat checks: every rep of one panel campaign must reproduce the
	// campaign's deterministic outputs — plain and traced reps run the same
	// campaign, so this is also the check that tracing only observes — and
	// traced reps must repeat their deterministic per-layer counts. A rep
	// that disagrees with the first rep of its campaign counts as failed.
	mismatched := 0
	first := map[int]repResult{}
	firstTraced := map[int]repResult{}
	for _, r := range append(append([]repResult(nil), reps...), plain...) {
		f, seen := first[r.Panel]
		if !seen {
			first[r.Panel], f = r, r
		}
		var bad []string
		if r.Det != f.Det {
			bad = append(bad, fmt.Sprintf("deterministic outputs %+v vs %+v", r.Det, f.Det))
		}
		if r.Traced {
			ft, seen := firstTraced[r.Panel]
			if !seen {
				firstTraced[r.Panel], ft = r, r
			}
			for _, name := range deterministicLayers {
				if r.Layers[name] != ft.Layers[name] {
					bad = append(bad, fmt.Sprintf("%s %v vs %v", name, r.Layers[name], ft.Layers[name]))
				}
			}
		}
		if len(bad) > 0 {
			mismatched++
			fmt.Fprintf(stderr, "campaignbench: panel %d: a rep differs from the first: %v\n", r.Panel, bad)
		}
	}
	failed += mismatched

	metrics := map[string]any{}
	if len(reps) > 0 && (!cfg.trace || len(plain) > 0) {
		if cfg.trace {
			fillLayers(metrics, reps, plain)
		} else {
			fillEndToEnd(metrics, reps)
		}
	} else {
		failed = attempted // no rep completed
	}
	return printResult(stdout, attempted, failed, metrics)
}

// printResult prints the result line and returns the exit code: 0 when
// every attempted rep completed and passed its checks.
func printResult(stdout io.Writer, attempted, failed int, metrics map[string]any) int {
	if metrics == nil {
		metrics = map[string]any{}
	}
	ok := failed == 0
	result := map[string]any{
		"correct":   ok,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}
	out, err := json.Marshal(result)
	if err != nil {
		// A metric without samples (NaN) cannot be encoded; that happens
		// only when reps failed, so the run is already incorrect.
		result["metrics"] = map[string]any{}
		out, _ = json.Marshal(result)
	}
	fmt.Fprintln(stdout, string(out))
	if !ok {
		return 1
	}
	return 0
}

// checkCheckout fails fast outside a repository checkout: the benchmark
// builds and drives the fuzzer from the module it lives in.
func checkCheckout() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return errors.New("run from the repository root (go.mod not found)")
	}
	return nil
}

func metric(v float64, unit string) map[string]any {
	return map[string]any{"value": v, "unit": unit}
}

func unitOf(specs []metricSpec, name string) string {
	for _, m := range specs {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("campaignbench: undeclared metric " + name)
}

func fillEndToEnd(out map[string]any, reps []repResult) {
	col := func(f func(r repResult) float64) float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = f(r)
		}
		return median(vals)
	}
	put := func(name string, v float64) { out[name] = metric(v, unitOf(endToEnd, name)) }
	put("iters_per_s", col(func(r repResult) float64 { return float64(r.Iterations) / r.WallS }))
	put("setup_s", col(func(r repResult) float64 { return r.SetupS }))
	put("cpu_ms_per_iter", col(func(r repResult) float64 { return r.CPUS * 1e3 / float64(r.Iterations) }))
	put("peak_rss_mb", col(func(r repResult) float64 { return r.PeakRSSMiB }))
	// Coverage is deterministic per panel campaign: report the panel mean.
	cov := map[int]int{}
	for _, r := range reps {
		cov[r.Panel] = r.Det.Coverage
	}
	sum := 0
	for _, c := range cov {
		sum += c
	}
	put("coverage", float64(sum)/float64(len(cov)))
}

// fillLayers reports the per-layer ledger: medians over the traced reps,
// except the metrics the plain reps measure (the Go runtime counters, and
// time to coverage on the engine workloads), which come from them, and the
// tracing overhead, traced against plain throughput. Deterministic counts
// and ratios are taken over the panel members every traced run completes,
// so they do not depend on how many reps fit in the run.
func fillLayers(out map[string]any, traced, plain []repResult) {
	col := func(reps []repResult, name string) float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r.Layers[name]
		}
		return median(vals)
	}
	var fixed []repResult
	seen := map[int]bool{}
	for _, r := range traced {
		if r.Panel < minTracedReps && !seen[r.Panel] {
			seen[r.Panel] = true
			fixed = append(fixed, r)
		}
	}
	for _, m := range perLayer {
		from := traced
		if _, ok := plain[0].Layers[m.Name]; ok {
			from = plain
		} else if slices.Contains(deterministicLayers, m.Name) {
			from = fixed
		}
		out[m.Name] = metric(col(from, m.Name), m.Unit)
	}
	rates := make([]float64, len(plain))
	for i, r := range plain {
		rates[i] = float64(r.Iterations) / r.WallS
	}
	ratio := col(traced, "trace.iters_per_s") / median(rates)
	out["trace.iters_per_s_ratio"] = metric(ratio, unitOf(perLayer, "trace.iters_per_s_ratio"))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runRep runs one campaign rep, seeded seed, in a fresh child process.
func runRep(cfg config, mode, donor, workdir string, i int, seed int64) (repResult, error) {
	dir := filepath.Join(workdir, mode+"-"+strconv.Itoa(i))
	defer os.RemoveAll(dir)
	spans := filepath.Join(cfg.workdir, "spans-"+cfg.wl.name+".ndjson")
	out, rss, err := runChild(cfg, mode, dir, seed, "--donor", donor, "--spans", spans)
	var res repResult
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("decode child result: %w", err)
	}
	res.PeakRSSMiB = rss
	return res, nil
}

// runChild re-executes this binary in child mode for a campaign seeded
// seed and returns the last line of its standard output and its peak RSS
// in MiB.
func runChild(cfg config, mode, dir string, seed int64, extra ...string) ([]byte, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{
		"--mode", mode,
		"--workload", cfg.wl.name,
		"--seed", strconv.FormatInt(seed, 10),
		"--iterations", strconv.Itoa(cfg.wl.iterations),
		"--donor-iterations", strconv.Itoa(cfg.wl.donorIters),
		"--dir", dir,
	}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child %s: %w", mode, err)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	return last, rss, nil
}
