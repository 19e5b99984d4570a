package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"dejavuzz"
	"dejavuzz/internal/server"
	"dejavuzz/internal/triage"
)

// Set-up samples per rep. Set-up is milliseconds against seconds of
// campaign, so each rep takes several samples and reports their median.
const (
	engineSetupSamples = 16
	serverSetupSamples = 4
)

// childMain runs one child job and prints its result as one JSON line.
func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("campaignbench-child", flag.ContinueOnError)
	mode := fs.String("mode", "", "run | plain | traced | donor")
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	iters := fs.Int("iterations", 0, "campaign length")
	donorIters := fs.Int("donor-iterations", 0, "donor campaign length")
	dir := fs.String("dir", "", "the job's own scratch directory")
	donor := fs.String("donor", "", "donor state directory (server workloads)")
	spans := fs.String("spans", "", "where a traced rep writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 2
	}
	wl.iterations, wl.donorIters = *iters, *donorIters

	var res repResult
	switch *mode {
	case "donor":
		if err := buildDonor(wl, *seed, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "campaignbench: donor:", err)
			return 1
		}
		return 0
	case "run":
		if wl.server {
			res = serverRep(wl, *seed, *dir, *donor)
		} else {
			res = engineRep(wl, *seed)
		}
	case "plain":
		res = plainRep(wl, *seed, *dir, *donor)
	case "traced":
		res = tracedRep(wl, *seed, *dir, *donor, *spans)
	default:
		fmt.Fprintf(os.Stderr, "campaignbench: unknown child mode %q\n", *mode)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func campaignOptions(seed int64, iters int, extra ...dejavuzz.Option) []dejavuzz.Option {
	return append([]dejavuzz.Option{
		dejavuzz.WithSeed(seed),
		dejavuzz.WithIterations(iters),
		dejavuzz.WithWorkers(1),
	}, extra...)
}

// epochMark is one epoch event as the client saw it.
type epochMark struct {
	at       time.Duration // since the session started
	coverage int
}

// timeToCoverage is the time of the first epoch whose coverage reached
// final.
func timeToCoverage(epochs []epochMark, final int) float64 {
	for _, e := range epochs {
		if e.coverage >= final {
			return e.at.Seconds()
		}
	}
	return 0
}

// campaignRun is one timed engine campaign.
type campaignRun struct {
	report *dejavuzz.Report
	setup  time.Duration // New + Start
	wall   time.Duration // session start to Done
	cpu    float64       // user+sys seconds over the same window
	epochs []epochMark
	// harvest is every epoch's corpus harvest, in barrier order.
	harvest [][]dejavuzz.HarvestedSeed
}

// runCampaign runs one engine campaign to completion, draining its event
// stream as a library client would.
func runCampaign(target string, opts []dejavuzz.Option) (*campaignRun, error) {
	t0 := time.Now()
	c, err := dejavuzz.New(target, opts...)
	if err != nil {
		return nil, err
	}
	sess, err := c.Start(context.Background())
	if err != nil {
		return nil, err
	}
	started := time.Now()
	cpu0 := cpuSeconds()
	run := &campaignRun{setup: started.Sub(t0)}
	for ev := range sess.Events() {
		if ev.Kind == dejavuzz.EventEpoch {
			run.epochs = append(run.epochs, epochMark{time.Since(started), ev.Coverage})
			run.harvest = append(run.harvest, ev.Harvest)
		}
	}
	rep, err := sess.Wait()
	run.wall = time.Since(started)
	run.cpu = cpuSeconds() - cpu0
	if err != nil {
		return nil, err
	}
	run.report = rep
	return run, nil
}

// setupSample times New + Start of a campaign whose context is already
// cancelled, so the session stops before its first iteration.
func setupSample(target string, opts []dejavuzz.Option) (time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	c, err := dejavuzz.New(target, opts...)
	if err != nil {
		return 0, err
	}
	sess, err := c.Start(ctx)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	for range sess.Events() {
	}
	_, _ = sess.Wait() // ErrInterrupted by construction
	return d, nil
}

// summarize derives a report's deterministic outputs. Signatures use the
// base target name so a run through the tracing wrapper compares equal.
func summarize(target string, rep *dejavuzz.Report) determinism {
	h := fnv.New64a()
	sigs := map[triage.Signature]bool{}
	for i := range rep.Findings {
		f := &rep.Findings[i]
		sig := triage.Compute(target, f)
		sigs[sig] = true
		fmt.Fprintf(h, "%d:%s;", f.Iteration, sig)
	}
	return determinism{
		Coverage: rep.Coverage,
		Bugs:     len(sigs),
		Findings: len(rep.Findings),
		Sims:     rep.Sims,
		Digest:   strconv.FormatUint(h.Sum64(), 16),
	}
}

// engineRep is one untraced rep of a library campaign with the workload's
// options plus extra. Besides the end-to-end figures it reports the Go
// runtime's allocation and GC counters over the campaign.
func engineRep(wl workload, seed int64, extra ...dejavuzz.Option) repResult {
	res := repResult{Iterations: wl.iterations, Layers: map[string]float64{}}
	opts := campaignOptions(seed, wl.iterations, extra...)
	rt0 := readRuntime()
	run, err := runCampaign(wl.target, opts)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	rt1 := readRuntime()
	n := float64(wl.iterations)
	res.Layers["runtime.allocs_per_iter"] = (rt1.allocs - rt0.allocs) / n
	res.Layers["runtime.bytes_per_iter"] = (rt1.bytes - rt0.bytes) / n
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		res.Layers["runtime.gc_cpu_fraction"] = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	res.WallS = run.wall.Seconds()
	res.CPUS = run.cpu
	res.Det = summarize(wl.target, run.report)
	res.TTCS = timeToCoverage(run.epochs, run.report.Coverage)
	res.Checks = checkReport(run.report, run.epochs, wl.iterations)

	samples := []float64{run.setup.Seconds()}
	run = nil
	for i := 1; i < engineSetupSamples; i++ {
		d, err := setupSample(wl.target, opts)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		samples = append(samples, d.Seconds())
	}
	res.SetupS = median(samples)
	return res
}

// checkReport checks a completed report against its own event stream.
func checkReport(rep *dejavuzz.Report, epochs []epochMark, iters int) []string {
	var bad []string
	if len(rep.Iters) != iters {
		bad = append(bad, fmt.Sprintf("report has %d iterations, want %d", len(rep.Iters), iters))
	}
	if len(epochs) == 0 || epochs[len(epochs)-1].coverage != rep.Coverage {
		bad = append(bad, "final epoch coverage differs from the report")
	}
	sims := 0
	for _, it := range rep.Iters {
		sims += it.Sims
	}
	if sims != rep.Sims {
		bad = append(bad, fmt.Sprintf("report sims %d != per-iteration sum %d", rep.Sims, sims))
	}
	if rep.Coverage <= 0 {
		bad = append(bad, "campaign reached no coverage")
	}
	return bad
}

// donorSeed derives the donor campaign's seed from the workload seed; it
// never coincides with a panel seed, so the donor and the measured
// campaigns never share a stimulus stream.
func donorSeed(seed int64) int64 { return seed*1000 + 999 }

func wireOptions(target string, seed int64, iters int, warm bool) (dejavuzz.Options, error) {
	var o dejavuzz.Options
	spec := fmt.Sprintf(`{"target":%q,"seed":%d,"iterations":%d,"workers":1,"warm_start":%t}`, target, seed, iters, warm)
	err := json.Unmarshal([]byte(spec), &o)
	return o, err
}

// buildDonor runs the donor campaign, seeded seed, through a server on dir,
// leaving its state — registry, triage store, corpus, report — for reps to
// copy.
func buildDonor(wl workload, seed int64, dir string) error {
	srv, err := server.Open(server.Config{StateDir: dir, Workers: 1})
	if err != nil {
		return err
	}
	o, err := wireOptions(wl.target, seed, wl.donorIters, false)
	if err != nil {
		return err
	}
	rec, err := srv.Create("donor", o)
	if err != nil {
		return err
	}
	for !rec.State.Terminal() {
		time.Sleep(5 * time.Millisecond)
		if rec, err = srv.Get(rec.ID); err != nil {
			return err
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}
	if rec.State != server.StateDone {
		return fmt.Errorf("donor campaign ended %s: %s", rec.State, rec.Error)
	}
	return nil
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// liveServer is an in-process campaign server behind a loopback listener,
// with a client limited to one connection.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
}

func startServer(dir string) (*liveServer, error) {
	srv, err := server.Open(server.Config{StateDir: dir, Workers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
		served: make(chan struct{}),
	}
	go func() {
		defer close(ls.served)
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return ls, nil
}

// close stops the HTTP side, then the service, and waits for both.
func (ls *liveServer) close() error {
	ls.client.CloseIdleConnections()
	err := ls.hs.Close()
	<-ls.served
	if serr := ls.srv.Shutdown(context.Background()); err == nil {
		err = serr
	}
	return err
}

func (ls *liveServer) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, ls.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// create submits a campaign and returns its record.
func (ls *liveServer) create(o dejavuzz.Options) (server.Record, error) {
	body, err := json.Marshal(map[string]any{"options": o})
	if err != nil {
		return server.Record{}, err
	}
	var rec server.Record
	err = ls.do(http.MethodPost, "/campaigns", body, &rec)
	return rec, err
}

// frame is the part of an event-stream frame the client reads.
type frame struct {
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Coverage int    `json:"coverage"`
}

// streamStats is what the client saw on a campaign's event stream.
type streamStats struct {
	epochs      []epochMark
	findings    int
	maxEventGap time.Duration
}

// follow reads the campaign's event stream until its done frame,
// resubscribing when a stream ends early (a stream opened before the
// campaign's session exists carries only a status frame).
func (ls *liveServer) follow(id string, started time.Time) (streamStats, error) {
	var st streamStats
	var last time.Time
	deadline := started.Add(150 * time.Second)
	for {
		resp, err := ls.client.Get(ls.base + "/campaigns/" + id + "/events")
		if err != nil {
			return st, err
		}
		dec := json.NewDecoder(resp.Body)
		done := false
		for !done {
			var fr frame
			if err := dec.Decode(&fr); err != nil {
				break
			}
			now := time.Now()
			switch fr.Kind {
			case "epoch":
				if !last.IsZero() && now.Sub(last) > st.maxEventGap {
					st.maxEventGap = now.Sub(last)
				}
				last = now
				st.epochs = append(st.epochs, epochMark{now.Sub(started), fr.Coverage})
			case "finding":
				st.findings++
			case "done":
				done = true
			case "status":
				if server.State(fr.State).Terminal() {
					resp.Body.Close()
					return st, fmt.Errorf("campaign %s is %s before its done frame was seen", id, fr.State)
				}
			}
		}
		resp.Body.Close()
		if done {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, errors.New("event stream did not finish")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDone polls until the campaign's record reaches a terminal state.
func (ls *liveServer) waitDone(id string) (server.Record, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var rec server.Record
		if err := ls.do(http.MethodGet, "/campaigns/"+id, nil, &rec); err != nil {
			return rec, err
		}
		if rec.State.Terminal() {
			return rec, nil
		}
		if time.Now().After(deadline) {
			return rec, fmt.Errorf("campaign %s still %s", id, rec.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// findingsView is the part of GET /findings the checks read.
type findingsView struct {
	RawFindings int        `json:"raw_findings"`
	Bugs        []bugCount `json:"bugs"`
}

type bugCount struct {
	Signature triage.Signature `json:"signature"`
	Count     int              `json:"count"`
}

// serverRep is one untraced rep of the server workload on a fresh copy of
// the donor state.
func serverRep(wl workload, seed int64, dir, donor string) repResult {
	res := repResult{Iterations: wl.iterations}
	fail := func(err error) repResult {
		res.Err = err.Error()
		return res
	}
	o, err := wireOptions(wl.target, seed, wl.iterations, true)
	if err != nil {
		return fail(err)
	}
	var before findingsView
	if err := readFindings(donor, &before); err != nil {
		return fail(err)
	}
	stateDir := filepath.Join(dir, "state")
	if err := copyTree(donor, stateDir); err != nil {
		return fail(err)
	}

	t0 := time.Now()
	ls, err := startServer(stateDir)
	if err != nil {
		return fail(err)
	}
	tPost := time.Now()
	rec, err := ls.create(o)
	created := time.Now()
	if err != nil {
		_ = ls.close()
		return fail(err)
	}
	cpu0 := cpuSeconds()
	stream, err := ls.follow(rec.ID, created)
	res.WallS = time.Since(created).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	if err != nil {
		_ = ls.close()
		return fail(err)
	}
	setup := []float64{created.Sub(t0).Seconds()}

	// Outside the timed window: the record, report and triage view the
	// checks compare.
	var after findingsView
	rep := &dejavuzz.Report{}
	rec, err = ls.waitDone(rec.ID)
	if err == nil {
		err = ls.do(http.MethodGet, "/campaigns/"+rec.ID+"/report", nil, rep)
	}
	if err == nil {
		err = ls.do(http.MethodGet, "/findings", nil, &after)
	}
	if cerr := ls.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	res.Det = summarize(wl.target, rep)
	res.TTCS = timeToCoverage(stream.epochs, rep.Coverage)
	res.Checks = checkServer(rep, rec, stream, before, after, wl)
	res.Layers = map[string]float64{
		"server.create_ms":        created.Sub(tPost).Seconds() * 1e3,
		"server.max_event_gap_ms": stream.maxEventGap.Seconds() * 1e3,
	}

	for i := 1; i < serverSetupSamples; i++ {
		d, err := serverSetupSample(o, donor, filepath.Join(dir, "setup-"+strconv.Itoa(i)))
		if err != nil {
			return fail(err)
		}
		setup = append(setup, d.Seconds())
	}
	res.SetupS = median(setup)
	return res
}

// readFindings loads the triage view of a server state directory.
func readFindings(stateDir string, out *findingsView) error {
	st, err := triage.Open(filepath.Join(stateDir, "findings.json"))
	if err != nil {
		return err
	}
	out.RawFindings, _ = st.Stats()
	for _, b := range st.Bugs() {
		out.Bugs = append(out.Bugs, bugCount{b.Signature, b.Count})
	}
	return nil
}

// checkServer checks that the report, the final epoch event, the campaign
// record and the triage store agree.
func checkServer(rep *dejavuzz.Report, rec server.Record, st streamStats, before, after findingsView, wl workload) []string {
	bad := checkReport(rep, st.epochs, wl.iterations)
	if rec.State != server.StateDone || rec.Coverage != rep.Coverage {
		bad = append(bad, fmt.Sprintf("record %s coverage %d, report coverage %d", rec.State, rec.Coverage, rep.Coverage))
	}
	if st.findings != len(rep.Findings) || rec.Findings != len(rep.Findings) {
		bad = append(bad, fmt.Sprintf("finding frames %d, record findings %d, report findings %d",
			st.findings, rec.Findings, len(rep.Findings)))
	}
	if after.RawFindings != before.RawFindings+len(rep.Findings) {
		bad = append(bad, fmt.Sprintf("triage raw findings %d, want %d + %d",
			after.RawFindings, before.RawFindings, len(rep.Findings)))
	}
	// Every report finding is in the store, and each cluster grew by the
	// report's occurrences of it.
	grew := map[triage.Signature]int{}
	for i := range rep.Findings {
		grew[triage.Compute(wl.target, &rep.Findings[i])]++
	}
	counts := map[triage.Signature]int{}
	for _, b := range before.Bugs {
		counts[b.Signature] -= b.Count
	}
	for _, b := range after.Bugs {
		counts[b.Signature] += b.Count
	}
	var sigs []string
	for sig, n := range grew {
		if counts[sig] != n {
			sigs = append(sigs, string(sig))
		}
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		bad = append(bad, "triage cluster count mismatch for "+sig)
	}
	if rec.Warm == nil || len(rec.Warm.Seeds) == 0 {
		bad = append(bad, "campaign was not warm-started from the donor corpus")
	}
	return bad
}

// serverSetupSample times server.Open on a fresh copy of the donor state
// through the POST /campaigns response, then shuts the server down (the
// campaign stops at its first barrier).
func serverSetupSample(o dejavuzz.Options, donor, dir string) (time.Duration, error) {
	defer os.RemoveAll(dir)
	if err := copyTree(donor, dir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	ls, err := startServer(dir)
	if err != nil {
		return 0, err
	}
	_, err = ls.create(o)
	d := time.Since(t0)
	if cerr := ls.close(); err == nil {
		err = cerr
	}
	return d, err
}
