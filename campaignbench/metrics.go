package main

// metricSpec is one reported metric: its name, unit and which direction is
// better. The tables below must match BENCHMARK.json exactly; the package
// self-test enforces it.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics an untraced run (--trace 0) reports for every
// workload.
var endToEnd = []metricSpec{
	{"iters_per_s", "iter/s", "higher"},
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_iter", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"coverage", "points", "higher"},
}

// perLayer are the metrics a traced run (--trace 1) reports for every
// workload. A layer the workload never enters reports 0 (for example the
// uarch layer on isasim-cold, or the server layer on the engine workloads).
var perLayer = []metricSpec{
	{"gen.build_us", "us", "lower"},
	{"gen.complete_us", "us", "lower"},
	{"gen.sanitize_us", "us", "lower"},
	{"p1.us_per_iter", "us", "lower"},
	{"p2.us_per_iter", "us", "lower"},
	{"p3.us_per_iter", "us", "lower"},
	{"p1.sims_per_iter", "sim/iter", "lower"},
	{"p2.sims_per_iter", "sim/iter", "lower"},
	{"p3.sims_per_iter", "sim/iter", "lower"},
	{"p1.trigger_rate", "ratio", "higher"},
	{"p1.train_kept_ratio", "ratio", "lower"},
	{"p2.taint_gain_rate", "ratio", "higher"},
	{"p3.finding_rate", "ratio", "higher"},
	{"sim.single_us", "us", "lower"},
	{"sim.diff_us", "us", "lower"},
	{"sim.cycles_per_sim", "cycle/sim", "lower"},
	{"sim.ns_per_cycle", "ns/cycle", "lower"},
	{"uarch.census_ns_per_cycle", "ns/cycle", "lower"},
	{"uarch.reset_us", "us", "lower"},
	{"swapmem.reset_us", "us", "lower"},
	{"isasim.us_per_iter", "us", "lower"},
	{"pipeline.us_per_iter", "us", "lower"},
	{"engine.self_ms", "ms", "lower"},
	{"engine.pipeline_share", "ratio", "higher"},
	{"runtime.allocs_per_iter", "alloc/iter", "lower"},
	{"runtime.bytes_per_iter", "B/iter", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"triage.add_us", "us", "lower"},
	{"triage.bytes_per_add", "B", "lower"},
	{"triage.bugs", "clusters", "higher"},
	{"campaign.findings", "count", "higher"},
	{"campaign.time_to_cov_s", "s", "lower"},
	{"corpus.open_ms", "ms", "lower"},
	{"corpus.warmstart_ms", "ms", "lower"},
	{"corpus.harvest_us", "us", "lower"},
	{"corpus.warm_seeds", "count", "higher"},
	{"server.create_ms", "ms", "lower"},
	{"server.max_event_gap_ms", "ms", "lower"},
	{"trace.iters_per_s_ratio", "ratio", "higher"},
}

// deterministicLayers are the per-layer metrics that are pure functions of
// the workload and seed: every traced run of one workload and seed must
// report them identically.
var deterministicLayers = []string{
	"p1.sims_per_iter", "p2.sims_per_iter", "p3.sims_per_iter",
	"p1.trigger_rate", "p1.train_kept_ratio", "p2.taint_gain_rate", "p3.finding_rate",
	"sim.cycles_per_sim", "triage.bugs", "campaign.findings", "corpus.warm_seeds",
}
