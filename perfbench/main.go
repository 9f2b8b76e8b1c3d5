// Command perfbench is the repository benchmark: one process drives a
// named workload against the real serving, core and cluster code on
// loopback, checks that the answers are correct, and prints one JSON result
// line. See README.md for the workloads, the metric tables and how to run
// one workload with a given seed.
//
//	perfbench --workload ingest-bin --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured by a span-traced replay of the
// run's recorded inputs and by probes of each layer's public functions.
// A failed correctness check exits with status 1, names the check on
// standard error and prints no result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec is one reported metric: its name and unit.
type metricSpec struct {
	name string
	unit string
}

// e2eSpecs are the end-to-end metrics every workload reports with
// --trace 0. Each workload gives each one its own concrete meaning
// (README.md "End-to-end metrics").
var e2eSpecs = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"update_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"bytes_per_op", "B"},
	{"heap_inuse_mb", "MB"},
}

// layerSpecs are the per-layer metrics every workload reports with
// --trace 1.
var layerSpecs = []metricSpec{
	{"core.step_ns_per_example", "ns"},
	{"core.update_batch_us", "us"},
	{"core.sync_ms", "ms"},
	{"core.mix_ms", "ms"},
	{"core.checkpoint_write_ms", "ms"},
	{"core.checkpoint_read_ms", "ms"},
	{"core.checkpoint_bytes", "B"},
	{"wire.decode_update_us", "us"},
	{"wire.encode_response_us", "us"},
	{"wire.update_frame_bytes", "B"},
	{"server.json_decode_update_us", "us"},
	{"server.json_encode_predict_us", "us"},
	{"cluster.apply_us", "us"},
	{"cluster.build_frames_us", "us"},
	{"cluster.encode_us", "us"},
	{"cluster.decode_us", "us"},
	{"cluster.publish_us", "us"},
	{"cluster.view_us", "us"},
	{"cluster.round_us", "us"},
	{"cluster.frames_full", "count"},
	{"cluster.frames_delta", "count"},
	{"cluster.delta_ratio", "fraction"},
	{"cluster.stream_bytes", "B"},
	{"cluster.stale_frames", "count"},
	{"cluster.rejected_frames", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"ledger.unaccounted_frac", "fraction"},
	{"bench.trace_overhead_pct", "%"},
}

// runOptions are the command-line settings shared by every workload.
type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	// info holds workload-specific figures that are printed (by name,
	// with their unit) but are not part of the result line.
	info   []infoLine
	params map[string]interface{}
	spans  *recorder
}

type infoLine struct {
	name  string
	value float64
	unit  string
}

func newReport() *report {
	return &report{
		e2e:    make(map[string]float64),
		layer:  make(map[string]float64),
		params: make(map[string]interface{}),
	}
}

func (r *report) addInfo(name string, value float64, unit string) {
	r.info = append(r.info, infoLine{name, value, unit})
}

// checkError is a failed correctness check: the run's answers were wrong.
type checkError struct {
	check  string
	detail string
}

func (e *checkError) Error() string { return "check " + e.check + " failed: " + e.detail }

func failCheck(check, format string, args ...interface{}) error {
	return &checkError{check: check, detail: fmt.Sprintf(format, args...)}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOptions) (*report, error){
	"ingest-bin":       func(o runOptions) (*report, error) { return runIngest(defaultIngestConfig(o)) },
	"serve-json-mixed": func(o runOptions) (*report, error) { return runServe(defaultServeConfig(o)) },
	"gossip-fleet":     func(o runOptions) (*report, error) { return runGossip(defaultGossipConfig(o)) },
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: ingest-bin, serve-json-mixed or gossip-fleet")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		traceOn  = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 reports per-layer metrics")
		spansDir = flag.String("spans", "", "directory for the traced run's span file (empty: do not write it)")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	opt := runOptions{seed: *seed, seconds: *seconds, trace: *traceOn == 1}
	rep, err := run(opt)
	if err != nil {
		var ce *checkError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED CHECK %s: %s\n", *workload, ce.check, ce.detail)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(3)
	}
	ctx := runContext(*workload, opt, rep.params)
	if opt.trace && rep.spans != nil && *spansDir != "" {
		path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := writeSpans(path, ctx, rep.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(3)
		}
	}
	if err := printResult(os.Stdout, ctx, opt.trace, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(3)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runContext is the hardware key and parameters every result is recorded
// with, so runs on different hardware are never compared.
func runContext(workload string, opt runOptions, params map[string]interface{}) map[string]interface{} {
	return map[string]interface{}{
		"workload":   workload,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"trace":      opt.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"params":     params,
	}
}

// cpuModel reads the CPU model name; "unknown" where the system does not
// expose one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the run context, the workload-specific figures, and
// last the result line holding exactly the metrics of the run's mode.
func printResult(w io.Writer, ctx map[string]interface{}, traced bool, rep *report) error {
	specs, values := e2eSpecs, rep.e2e
	if traced {
		specs, values = layerSpecs, rep.layer
	}
	res := resultLine{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue)}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return fmt.Errorf("workload did not measure %s", s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload attempted no operations")
	}
	b, err := json.Marshal(map[string]interface{}{"context": ctx})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	for _, l := range rep.info {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", l.name, l.value, l.unit)
	}
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// deadline returns the end of a timed phase of the given length.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
