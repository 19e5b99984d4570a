package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// smoke runs re-execute it as a child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricsMatchBenchmarkFile checks that every metric campaignbench prints
// is declared in BENCHMARK.json with the same unit and direction, and that
// the declared workloads are campaignbench's.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e []metricSpec
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricSpec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	sameSpecs(t, "end_to_end", e2e, endToEnd)
	sameSpecs(t, "per_layer", bf.PerLayer, perLayer)

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, campaignbench has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, campaignbench %q", i, w.Name, workloads[i].name)
		}
		if !strings.Contains(strings.ToLower(w.Why), "held-out seed "+strconv.Itoa(heldOutSeed)) {
			t.Errorf("workload %s: why does not name the held-out seed %d", w.Name, heldOutSeed)
		}
	}
}

func sameSpecs(t *testing.T, section string, declared, printed []metricSpec) {
	t.Helper()
	want := map[string]metricSpec{}
	for _, m := range declared {
		want[m.Name] = m
	}
	if len(want) != len(declared) || len(declared) != len(printed) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, campaignbench prints %d", section, len(declared), len(printed))
	}
	for _, m := range printed {
		if got, ok := want[m.Name]; !ok {
			t.Errorf("%s: %s is printed but not declared", section, m.Name)
		} else if got != m {
			t.Errorf("%s: %s declared as %+v, printed as %+v", section, m.Name, got, m)
		}
	}
}

// smokeSizes keep the smoke runs to a fraction of a second each.
var smokeSizes = map[string]int{"boom-cold": 64, "isasim-cold": 256, "boom-server-warm": 128}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and checks that the result line is correct and carries every metric.
func TestSmokeEveryWorkload(t *testing.T) {
	t.Chdir("..") // campaignbench runs from the repository root
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := parentMain([]string{
					"--workload", wl.name, "--seed", "3", "--seconds", "0", "--trace", trace,
					"--iterations", strconv.Itoa(smokeSizes[wl.name]), "--workdir", t.TempDir(),
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, stderr.String())
				}
				specs := endToEnd
				if trace == "1" {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, m := range specs {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Value == nil || got.Unit != m.Unit {
						t.Errorf("metric %s missing or mis-unitted: %+v", m.Name, got)
					}
				}
			})
		}
	}
}

// TestFailsOutsideCheckout checks that campaignbench refuses to run, without
// printing a result, where there is no repository to build and drive.
func TestFailsOutsideCheckout(t *testing.T) {
	t.Chdir(t.TempDir())
	var stdout, stderr bytes.Buffer
	code := parentMain([]string{"--workload", "boom-cold", "--seed", "1", "--seconds", "1", "--trace", "0"}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
