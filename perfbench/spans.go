package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// recorder keeps the traced replay's spans in memory; they are written out
// once, after the run. A span is opened by the benchmark's own code around
// one call into a layer's public function. A disabled recorder makes the
// same calls record nothing, which is how the replay measures the tracing
// overhead.
type recorder struct {
	on    bool
	base  time.Time
	spans []span
}

type span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`     // replayed operation the span belongs to
	Parent int32  `json:"parent"` // index of the enclosing span; -1 for an op root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, base: time.Now()}
}

// start opens a span and returns its handle; -1 when recording is off.
func (r *recorder) start(name string, op, parent int32) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(r.base)), End: -1})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.base))
}

// layerOf maps a span name ("wire.decode_update") to its layer ("wire").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanStat is one span name's totals over the replay.
type spanStat struct {
	name  string
	calls int
	total time.Duration // sum of durations
	self  time.Duration // sum of durations minus child coverage
}

// selfTimes computes every span's self time — its duration minus the part
// of its interval its child spans cover — and totals them by span name.
func (r *recorder) selfTimes() []spanStat {
	children := make([][]int32, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	byName := make(map[string]*spanStat)
	var names []string
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		dur := time.Duration(s.End - s.Start)
		st.calls++
		st.total += dur
		st.self += dur - coverage(r.spans, children[i], s.Start, s.End)
	}
	sort.Strings(names)
	out := make([]spanStat, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// coverage is the length of the union of the child intervals, clipped to
// the parent's interval.
func coverage(spans []span, kids []int32, lo, hi int64) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		if c.End < 0 {
			continue
		}
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return time.Duration(total)
}

// meanUs is the mean duration of the named span in microseconds, 0 when it
// never ran.
func meanUs(stats []spanStat, name string) float64 {
	for _, s := range stats {
		if s.name == name && s.calls > 0 {
			return us(s.total) / float64(s.calls)
		}
	}
	return 0
}

// ledger is the traced replay's accounting: self time by layer per
// replayed op, against the end-to-end time per op of the live phase.
type ledger struct {
	ops         int
	e2ePerOp    time.Duration // live phase
	layerPerOp  map[string]time.Duration
	selfPerOp   time.Duration // Σ layer self time per op
	overheadPct float64
}

// buildLedger totals the replay's spans. e2ePerOp comes from the live
// phase of the same run; tracedWall and untracedWall are the replay's wall
// times with recording on and off.
func buildLedger(r *recorder, ops int, e2ePerOp, tracedWall, untracedWall time.Duration) ledger {
	lg := ledger{ops: ops, e2ePerOp: e2ePerOp, layerPerOp: make(map[string]time.Duration)}
	if ops <= 0 {
		return lg
	}
	for _, st := range r.selfTimes() {
		per := st.self / time.Duration(ops)
		lg.layerPerOp[layerOf(st.name)] += per
		lg.selfPerOp += per
	}
	if untracedWall > 0 {
		lg.overheadPct = 100 * float64(tracedWall-untracedWall) / float64(untracedWall)
	}
	return lg
}

// unaccountedFrac is 1 − Σ layer self time ÷ end-to-end time per op.
func (lg ledger) unaccountedFrac() float64 {
	if lg.e2ePerOp <= 0 {
		return 0
	}
	return 1 - float64(lg.selfPerOp)/float64(lg.e2ePerOp)
}

// apply copies the ledger's figures into the report: the two gated-free
// summary metrics, and one info line per layer and per span name.
func (lg ledger) apply(rep *report, r *recorder) {
	rep.layer["ledger.unaccounted_frac"] = lg.unaccountedFrac()
	rep.layer["bench.trace_overhead_pct"] = lg.overheadPct
	rep.addInfo("ledger.e2e_us_per_op", us(lg.e2ePerOp), "us")
	rep.addInfo("ledger.self_us_per_op", us(lg.selfPerOp), "us")
	layers := make([]string, 0, len(lg.layerPerOp))
	for l := range lg.layerPerOp {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		rep.addInfo("ledger."+l+"_self_us_per_op", us(lg.layerPerOp[l]), "us")
	}
	if lg.ops > 0 {
		for _, st := range r.selfTimes() {
			rep.addInfo("span."+st.name+"_self_us_per_op", us(st.self)/float64(lg.ops), "us")
		}
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// writeSpans writes the run context and then one span per line.
func writeSpans(path string, ctx map[string]interface{}, r *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]interface{}{"context": ctx}); err != nil {
		f.Close()
		return err
	}
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- statistics ----

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the interquartile mean: the mean of the middle half of xs
// (all of xs when there are fewer than four). It averages like a mean
// and, like a median, ignores the outlying windows or fleets a burst of
// interference from outside the benchmark produces.
func midMean(xs []float64) float64 {
	if len(xs) < 4 {
		return mean(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := len(s) / 4
	return mean(s[q : len(s)-q])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed is one completed operation: when it was due or completed, from
// the start of the timed phase, its latency, and the work it carried.
type timed struct {
	at   time.Duration
	ms   float64
	work float64
}

// windowed splits a timed phase into whole windows of the given width and
// reports the interquartile mean over windows of the work rate and of each
// latency quantile, so a burst of interference from outside the benchmark
// moves one window's figures, not the run's. Samples past the last whole
// window are left out. A phase shorter than one window is one window.
func windowed(samples []timed, phase, width time.Duration, qs ...float64) (rate float64, quants []float64) {
	n := int(phase / width)
	if n < 1 {
		n, width = 1, phase
	}
	work := make([]float64, n)
	lat := make([][]float64, n)
	for _, s := range samples {
		i := int(s.at / width)
		if i < 0 || i >= n {
			continue
		}
		work[i] += s.work
		lat[i] = append(lat[i], s.ms)
	}
	rates := make([]float64, n)
	for i := range work {
		rates[i] = work[i] / width.Seconds()
	}
	quants = make([]float64, len(qs))
	for j, q := range qs {
		var per []float64
		for _, l := range lat {
			if len(l) > 0 {
				per = append(per, quantile(l, q))
			}
		}
		quants[j] = midMean(per)
	}
	return midMean(rates), quants
}

// latencies collects per-operation times in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// summarize adds name_p50/p90/p99/max_ms info lines with the sample count.
func (l latencies) summarize(rep *report, name string) {
	rep.addInfo(name+"_count", float64(len(l)), "count")
	rep.addInfo(name+"_p50_ms", quantile(l, 0.5), "ms")
	rep.addInfo(name+"_p90_ms", quantile(l, 0.9), "ms")
	rep.addInfo(name+"_p99_ms", quantile(l, 0.99), "ms")
	rep.addInfo(name+"_max_ms", quantile(l, 1), "ms")
}

// goCounters snapshots the runtime's allocation and GC counters and the
// process's CPU time (user + system, every thread).
type goCounters struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	pauseNs             uint64
	cpu                 time.Duration
}

func readGoCounters() goCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return goCounters{totalAlloc: m.TotalAlloc, mallocs: m.Mallocs, numGC: m.NumGC, pauseNs: m.PauseTotalNs, cpu: cpu}
}

// cpuUsPerOp is the process's CPU time over a phase, client and server
// together, per operation. Unlike a latency it does not grow when other
// tenants of the host take CPU away from the run, so it is the steady
// measure of what an operation costs.
func cpuUsPerOp(before, after goCounters, ops int64) float64 {
	if ops < 1 {
		ops = 1
	}
	return float64(after.cpu-before.cpu) / 1e3 / float64(ops)
}

// goMetrics reports the runtime's work over a phase of ops operations:
// the whole process, client and server together.
func goMetrics(rep *report, before, after goCounters, ops int64) {
	if ops < 1 {
		ops = 1
	}
	rep.layer["go.alloc_bytes_per_op"] = float64(after.totalAlloc-before.totalAlloc) / float64(ops)
	rep.layer["go.allocs_per_op"] = float64(after.mallocs-before.mallocs) / float64(ops)
	rep.layer["go.gc_cycles"] = float64(after.numGC - before.numGC)
	rep.layer["go.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
}

// heapInuseMB forces a collection and reports the heap in use, in MB.
// The second collection also empties the sync.Pool victim caches.
func heapInuseMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / 1e6
}

// timeReps runs setup n times and returns the median duration in seconds.
// teardown releases what each setup built. Each set-up starts after a
// collection, so the garbage of the inputs generated before it, or of the
// set-up before it, is not collected on its clock.
func timeReps(n int, setup func() (teardown func(), err error)) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		teardown, err := setup()
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		teardown()
		times = append(times, d.Seconds())
	}
	return median(times), nil
}
