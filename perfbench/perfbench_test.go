package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// Tiny configurations of each workload: same code paths, seconds of work.

func tinyIngest(trace bool) ingestConfig {
	cfg := defaultIngestConfig(runOptions{seed: 3, seconds: 0.3, trace: trace})
	cfg.poolFrames, cfg.frameExamples, cfg.depth = 8, 64, 2
	cfg.holdout, cfg.queryPasses, cfg.probes = 200, 1, 16
	cfg.setupReps, cfg.replayFrames = 1, 20
	// 200 held-out examples after a fraction of a second of training
	// cannot resolve a 0.05 difference; only a model that learned nothing
	// fails this margin.
	cfg.holdoutMargin = 0.3
	return cfg
}

func tinyServe(trace bool) serveConfig {
	cfg := defaultServeConfig(runOptions{seed: 3, seconds: 0.5, trace: trace})
	cfg.rate = 400
	cfg.poolUpdates, cfg.poolPredicts, cfg.poolEstimates = 16, 16, 8
	cfg.holdout, cfg.setupReps, cfg.replayOps = 100, 1, 100
	return cfg
}

func tinyGossip(trace bool) gossipConfig {
	cfg := defaultGossipConfig(runOptions{seed: 3, seconds: 0.05, trace: trace})
	cfg.fleet.nodes, cfg.fleet.peers, cfg.fleet.trainRounds, cfg.fleet.chunk = 6, 3, 3, 8
	cfg.fleet.maxQuiesce, cfg.fleet.holdout = 10, 50
	cfg.inputSets, cfg.setupReps = 1, 1
	return cfg
}

// checkResult prints rep and requires the last line to be a result with
// exactly the mode's metrics, each finite, with its unit.
func checkResult(t *testing.T, rep *report, traced bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, map[string]interface{}{}, traced, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 {
		t.Fatalf("result has keys %v, want correct, attempted, failed, metrics", res)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	specs := e2eSpecs
	if traced {
		specs = layerSpecs
	}
	if len(metrics) != len(specs) {
		t.Errorf("%d metrics, want %d", len(metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := metrics[s.name]
		if !ok {
			t.Errorf("missing %s", s.name)
			continue
		}
		if m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v %s", s.name, m.Value, m.Unit)
		}
	}
}

func TestWorkloadsRunEndToEnd(t *testing.T) {
	for _, traced := range []bool{false, true} {
		runs := map[string]func() (*report, error){
			"ingest-bin":       func() (*report, error) { return runIngest(tinyIngest(traced)) },
			"serve-json-mixed": func() (*report, error) { return runServe(tinyServe(traced)) },
			"gossip-fleet":     func() (*report, error) { return runGossip(tinyGossip(traced)) },
		}
		for name, run := range runs {
			rep, err := run()
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("%s: attempted %d, failed %d", name, rep.attempted, rep.failed)
			}
			checkResult(t, rep, traced)
			if traced && len(rep.spans.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}

// Each planted fault must fail the run with the check that guards it.
func TestPlantedFaultsFailTheirCheck(t *testing.T) {
	cases := []struct {
		fault, check string
		run          func(fault string) error
	}{
		{"drop", "gossip.view_matches_union", func(f string) error {
			cfg := tinyGossip(false)
			cfg.fleet.fault = f
			_, err := runGossip(cfg)
			return err
		}},
		{"flip", "gossip.rejected_frames", func(f string) error {
			cfg := tinyGossip(false)
			cfg.fleet.fault = f
			_, err := runGossip(cfg)
			return err
		}},
		{"drop-update", "ingest.applied_counter", func(f string) error {
			cfg := tinyIngest(false)
			cfg.fault = f
			_, err := runIngest(cfg)
			return err
		}},
		{"wrong-predict", "serve.predict_label_sign", func(f string) error {
			cfg := tinyServe(false)
			cfg.fault = f
			_, err := runServe(cfg)
			return err
		}},
	}
	for _, c := range cases {
		err := c.run(c.fault)
		var ce *checkError
		if !errors.As(err, &ce) || ce.check != c.check {
			t.Errorf("fault %s: got %v, want failed check %s", c.fault, err, c.check)
		}
	}
}

// metricName is the naming rule every reported metric follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range append(append([]metricSpec(nil), e2eSpecs...), layerSpecs...) {
		if !metricName.MatchString(s.name) || seen[s.name] {
			t.Errorf("bad or duplicate metric name %q", s.name)
		}
		seen[s.name] = true
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program does not have", w.Name)
		}
	}
	same := func(kind string, declared []struct{ Name, Unit string }, specs []metricSpec) {
		if len(declared) != len(specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program reports %d", kind, len(declared), len(specs))
			return
		}
		for i, d := range declared {
			if d.Name != specs[i].name || d.Unit != specs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, d.Name, d.Unit, specs[i].name, specs[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, e2eSpecs)
	same("per_layer", bj.PerLayer, layerSpecs)
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	r := &recorder{on: true, spans: []span{
		{Name: "bench.op", Parent: -1, Start: 0, End: 100},
		{Name: "core.a", Parent: 0, Start: 10, End: 30},
		{Name: "core.a", Parent: 0, Start: 20, End: 40}, // overlaps the first child
		{Name: "wire.b", Parent: 0, Start: 50, End: 60},
	}}
	want := map[string]time.Duration{"bench.op": 60, "core.a": 40, "wire.b": 10}
	for _, st := range r.selfTimes() {
		if st.self != want[st.name] {
			t.Errorf("%s self %v, want %v", st.name, st.self, want[st.name])
		}
	}
}

func TestWindowedIgnoresDisturbedWindow(t *testing.T) {
	var samples []timed
	for w := 0; w < 5; w++ {
		n, latency := 10, 1.0
		if w == 2 {
			n, latency = 1, 50 // one disturbed window
		}
		for i := 0; i < n; i++ {
			samples = append(samples, timed{at: time.Duration(w)*time.Second + time.Duration(i), ms: latency, work: 1})
		}
	}
	rate, q := windowed(samples, 5*time.Second, time.Second, 0.9)
	if rate != 10 || q[0] != 1 {
		t.Errorf("rate %v p90 %v, want 10 and 1", rate, q[0])
	}
}
