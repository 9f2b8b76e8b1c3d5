package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/server"
	"wmsketch/internal/stream"
)

// serve-json-mixed: an open loop of HTTP/JSON requests over two keep-alive
// connections, arriving on a fixed seeded Poisson schedule well below
// saturation. Updates are a quarter of the requests; the rest read the
// merged view while writes and the 200 ms refresh contend for the same
// backend. The gated latencies are round trips on the connection, from
// the moment a request is sent to its full answer. The latency from each
// request's intended send time is printed beside them: it also counts the
// wait for a free connection of the two, and the load generator's own
// timer, which the Go runtime wakes at millisecond granularity; on a
// shared host both swing from run to run far more than the server does.

const (
	kindUpdate = iota
	kindPredict
	kindEstimate
	kindTopK
	numKinds
)

var kindNames = [numKinds]string{"update", "predict", "estimate", "topk"}

// kindRoutes are the server's route labels, by request kind.
var kindRoutes = [numKinds]string{"POST /v1/update", "POST /v1/predict", "POST /v1/estimate", "GET /v1/topk"}

type serveConfig struct {
	runOptions
	rate            float64           // arrivals per second
	conns           int               // HTTP keep-alive connections
	mix             [numKinds]float64 // share of arrivals by kind
	updateExamples  int
	estimateIndices int
	topK            int
	poolUpdates     int // distinct pre-encoded bodies, by kind
	poolPredicts    int
	poolEstimates   int
	holdout         int
	setupReps       int
	replayOps       int // cap on the traced replay
	// fault plants a fault for the benchmark's own tests: "wrong-predict"
	// flips the label of the first predict answer.
	fault string
}

func defaultServeConfig(o runOptions) serveConfig {
	return serveConfig{
		runOptions:      o,
		rate:            1500,
		conns:           2,
		mix:             [numKinds]float64{0.25, 0.65, 0.08, 0.02},
		updateExamples:  64,
		estimateIndices: 64,
		topK:            10,
		poolUpdates:     512,
		poolPredicts:    1024,
		poolEstimates:   256,
		holdout:         2000,
		setupReps:       31,
		replayOps:       20000,
	}
}

type arrival struct {
	at   time.Duration // intended send time from the start of the phase
	kind int
	idx  int // body pool index
}

// serveInput is the pre-generated, pre-encoded workload.
type serveInput struct {
	schedule  []arrival
	updates   [][]stream.Example
	bodies    [numKinds][][]byte
	predictX  []stream.Vector
	estimates [][]uint32
	holdout   []stream.Example
}

func makeServeInput(cfg serveConfig) (serveInput, error) {
	var in serveInput
	gen := datagen.RCV1Like(cfg.seed)
	for i := 0; i < cfg.poolUpdates; i++ {
		b := gen.Take(cfg.updateExamples)
		body, err := jsonBody(server.UpdateRequest{Examples: examplesJSON(b)})
		if err != nil {
			return in, err
		}
		in.updates = append(in.updates, b)
		in.bodies[kindUpdate] = append(in.bodies[kindUpdate], body)
	}
	for _, ex := range gen.Take(cfg.poolPredicts) {
		body, err := jsonBody(server.PredictRequest{X: vectorJSON(ex.X)})
		if err != nil {
			return in, err
		}
		in.predictX = append(in.predictX, ex.X)
		in.bodies[kindPredict] = append(in.bodies[kindPredict], body)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < cfg.poolEstimates; i++ {
		// Indices of features that occur in the stream, by popularity.
		idx := make([]uint32, cfg.estimateIndices)
		for j := range idx {
			b := in.updates[rng.Intn(len(in.updates))]
			x := b[rng.Intn(len(b))].X
			idx[j] = x[rng.Intn(len(x))].Index
		}
		body, err := jsonBody(server.EstimateRequest{Indices: idx})
		if err != nil {
			return in, err
		}
		in.estimates = append(in.estimates, idx)
		in.bodies[kindEstimate] = append(in.bodies[kindEstimate], body)
	}
	in.bodies[kindTopK] = [][]byte{nil}
	in.holdout = gen.Take(cfg.holdout)

	var t float64
	for {
		t += rng.ExpFloat64() / cfg.rate
		if t >= cfg.seconds {
			break
		}
		u, kind := rng.Float64(), 0
		for acc := cfg.mix[0]; u >= acc && kind < numKinds-1; {
			kind++
			acc += cfg.mix[kind]
		}
		in.schedule = append(in.schedule, arrival{
			at:   time.Duration(t * float64(time.Second)),
			kind: kind,
			idx:  rng.Intn(len(in.bodies[kind])),
		})
	}
	return in, nil
}

// sample is one completed request.
type sample struct {
	kind     int
	at       time.Duration // intended send time from the start of the phase
	latency  time.Duration // from the actual send time
	intended time.Duration // from the intended send time
	late     time.Duration // actual − intended send time
	bytes    int           // request + response body bytes
	examples int           // examples the server reported applied
}

func runServe(cfg serveConfig) (*report, error) {
	rep := newReport()
	geom := servingGeometry()
	rep.params["rate_per_s"] = cfg.rate
	rep.params["connections"] = cfg.conns
	rep.params["mix"] = map[string]float64{"update": cfg.mix[0], "predict": cfg.mix[1], "estimate": cfg.mix[2], "topk": cfg.mix[3]}
	rep.params["update_examples"] = cfg.updateExamples
	rep.params["estimate_indices"] = cfg.estimateIndices
	rep.params["workers"] = runtime.GOMAXPROCS(0)
	rep.params["geometry"] = fmt.Sprintf("w%d d%d heap%d", geom.Width, geom.Depth, geom.HeapSize)

	in, err := makeServeInput(cfg)
	if err != nil {
		return nil, err
	}
	if len(in.schedule) == 0 {
		return nil, fmt.Errorf("empty arrival schedule")
	}

	setup, err := timeReps(cfg.setupReps, func() (func(), error) {
		s, err := startServer(servingOptions(), false, nil)
		if err != nil {
			return nil, err
		}
		hc := httpClient()
		if _, _, err := call(hc, "GET", s.base+"/healthz", nil, nil); err != nil {
			s.close()
			return nil, err
		}
		return func() { hc.CloseIdleConnections(); s.close() }, nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	var wrap func(http.Handler) http.Handler
	if cfg.fault == "wrong-predict" {
		wrap = flipFirstPredictLabel
	}
	s, err := startServer(servingOptions(), false, wrap)
	if err != nil {
		return nil, err
	}
	defer s.close()
	clients := make([]*http.Client, cfg.conns)
	for c := range clients {
		clients[c] = httpClient()
		if _, _, err := call(clients[c], "GET", s.base+"/healthz", nil, nil); err != nil {
			return nil, err
		}
		defer clients[c].CloseIdleConnections()
	}

	results := make([][]sample, cfg.conns)
	errs := make([]error, cfg.conns)
	var next atomic.Int64 // next arrival to send, taken by whichever connection is free
	before := readGoCounters()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = serveConn(cfg, in, s.base, clients[c], &next, start)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := readGoCounters()
	rep.e2e["heap_inuse_mb"] = heapInuseMB()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var (
		lat, intended [2]latencies // update, query
		late          latencies
		updT, queryT  []timed // by intended send time
		service       time.Duration
		bodyBytes     int
		applied       int64
		completed     int
	)
	for _, rs := range results {
		for _, r := range rs {
			t := timed{at: r.at, ms: ms(r.latency), work: 1}
			q := 0
			if r.kind == kindUpdate {
				updT = append(updT, t)
			} else {
				q = 1
				queryT = append(queryT, t)
			}
			lat[q].add(r.latency)
			intended[q].add(r.intended)
			late.add(r.late)
			service += r.latency
			bodyBytes += r.bytes
			applied += int64(r.examples)
			completed++
		}
	}
	rep.attempted, rep.failed = int64(len(in.schedule)), int64(len(in.schedule)-completed)

	hc := httpClient()
	defer hc.CloseIdleConnections()
	m, err := scrape(hc, s.base)
	if err != nil {
		return nil, err
	}
	if got := m["wmcore_updates_applied_total"]; got != float64(applied) {
		return nil, failCheck("serve.applied_counter", "wmcore_updates_applied_total is %.0f, responses reported %d applied", got, applied)
	}
	if _, _, err := call(hc, "POST", s.base+"/v1/sync", []byte("{}"), nil); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	wrong := 0
	for _, ex := range in.holdout {
		body, err := jsonBody(server.PredictRequest{X: vectorJSON(ex.X)})
		if err != nil {
			return nil, err
		}
		var pr server.PredictResponse
		if _, _, err := call(hc, "POST", s.base+"/v1/predict", body, &pr); err != nil {
			return nil, err
		}
		if (pr.Margin > 0) != (ex.Y > 0) {
			wrong++
		}
	}

	phase := time.Duration(cfg.seconds * float64(time.Second))
	_, uq := windowed(updT, phase, time.Second, 0.5)
	_, qq := windowed(queryT, phase, time.Second, 0.5, 0.9)
	rep.e2e["ops_per_s"] = float64(completed) / elapsed.Seconds()
	rep.e2e["update_p50_ms"] = uq[0]
	rep.e2e["query_p50_ms"] = qq[0]
	rep.e2e["query_p90_ms"] = qq[1]
	rep.e2e["cpu_us_per_op"] = cpuUsPerOp(before, after, int64(completed))
	rep.e2e["bytes_per_op"] = float64(bodyBytes) / float64(completed)
	rep.addInfo("holdout_error", float64(wrong)/float64(len(in.holdout)), "fraction")

	rep.addInfo("requests_per_s", float64(completed)/elapsed.Seconds(), "1/s")
	rep.addInfo("updates_per_s", float64(applied)/elapsed.Seconds(), "1/s")
	rep.addInfo("error_rate", float64(rep.failed)/float64(rep.attempted), "fraction")
	lat[0].summarize(rep, "update")
	lat[1].summarize(rep, "query")
	intended[0].summarize(rep, "update_from_intended")
	intended[1].summarize(rep, "query_from_intended")
	rep.addInfo("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	rep.addInfo("loadgen.sent", float64(len(in.schedule)), "count")
	rep.addInfo("loadgen.completed", float64(completed), "count")
	rep.addInfo("loadgen.failed", float64(rep.failed), "count")
	var srvSum, srvCount float64
	for k := 0; k < numKinds; k++ {
		labels := `{route="` + kindRoutes[k] + `"}`
		rep.addInfo("server.http_"+kindNames[k]+"_mean_ms", histMeanMs(m, "wmserve_http_request_duration_seconds", labels), "ms")
		srvSum += m["wmserve_http_request_duration_seconds_sum"+labels]
		srvCount += m["wmserve_http_request_duration_seconds_count"+labels]
	}
	clientMean := service / time.Duration(completed)
	serverMean := 0.0
	if srvCount > 0 {
		serverMean = 1e3 * srvSum / srvCount
	}
	rep.addInfo("server.unaccounted_ms", ms(clientMean)-serverMean, "ms")
	rep.addInfo("server.updates_applied", m["wmcore_updates_applied_total"], "count")
	rep.addInfo("server.snapshot_refreshes", m["wmcore_snapshot_refreshes_total"], "count")
	var httpErrors float64
	for k := 0; k < numKinds; k++ {
		labels := `route="` + kindRoutes[k] + `"`
		httpErrors += m["wmserve_http_request_errors_total{"+labels+"}"]
		httpErrors += m["wmserve_http_requests_total{"+labels+`,code="4xx"}`]
	}
	rep.addInfo("server.http_errors", httpErrors, "count")

	if !cfg.trace {
		return rep, nil
	}
	goMetrics(rep, before, after, int64(completed))

	n := min(len(in.schedule), cfg.replayOps)
	syncEvery := max(1, int(0.2*cfg.rate))
	rec := newRecorder(true)
	tracedWall, err := replayServe(in, in.schedule[:n], syncEvery, cfg.topK, rec)
	if err != nil {
		return nil, err
	}
	untracedWall, err := replayServe(in, in.schedule[:n], syncEvery, cfg.topK, newRecorder(false))
	if err != nil {
		return nil, err
	}
	lg := buildLedger(rec, n, clientMean, tracedWall, untracedWall)
	lg.apply(rep, rec)
	rep.spans = rec

	snaps, err := shardSnapshots(geom, runtime.GOMAXPROCS(0), in.updates)
	if err != nil {
		return nil, err
	}
	if err := coreProbe(rep, geom, in.updates, snaps); err != nil {
		return nil, err
	}
	if err := codecProbe(rep, in.updates); err != nil {
		return nil, err
	}
	var pool []stream.Example
	for _, b := range in.updates {
		pool = append(pool, b...)
	}
	if err := clusterProbe(rep, pool, cfg.seed); err != nil {
		return nil, err
	}
	return rep, nil
}

// serveConn is one connection of the client's pool: it takes the next
// unsent arrival whenever it is free, sends it at its intended time (or at
// once, when the pool has fallen behind) and checks every answer.
func serveConn(cfg serveConfig, in serveInput, base string, hc *http.Client, next *atomic.Int64, start time.Time) ([]sample, error) {
	out := make([]sample, 0, len(in.schedule)/cfg.conns+1)
	topkURL := base + "/v1/topk?k=" + strconv.Itoa(cfg.topK)
	for {
		i := int(next.Add(1) - 1)
		if i >= len(in.schedule) {
			return out, nil
		}
		a := in.schedule[i]
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		body := in.bodies[a.kind][a.idx]
		var (
			reqB, respB int
			err         error
			examples    int
		)
		switch a.kind {
		case kindUpdate:
			var r server.UpdateResponse
			reqB, respB, err = call(hc, "POST", base+"/v1/update", body, &r)
			if err == nil && r.Applied != len(in.updates[a.idx]) {
				return nil, failCheck("serve.update_applied", "applied %d of %d examples", r.Applied, len(in.updates[a.idx]))
			}
			examples = r.Applied
		case kindPredict:
			var r server.PredictResponse
			reqB, respB, err = call(hc, "POST", base+"/v1/predict", body, &r)
			if err == nil && (r.Margin > 0) != (r.Label == 1) {
				return nil, failCheck("serve.predict_label_sign", "label %d for margin %g", r.Label, r.Margin)
			}
		case kindEstimate:
			var r server.EstimateResponse
			reqB, respB, err = call(hc, "POST", base+"/v1/estimate", body, &r)
			if err == nil && len(r.Weights) != len(in.estimates[a.idx]) {
				return nil, failCheck("serve.estimate_count", "%d weights for %d indices", len(r.Weights), len(in.estimates[a.idx]))
			}
		case kindTopK:
			var r server.TopKResponse
			reqB, respB, err = call(hc, "GET", topkURL, nil, &r)
		}
		done := time.Now()
		if err != nil {
			if isAnswerError(err) {
				return nil, failCheck("serve.response_ok", "%s: %v", kindNames[a.kind], err)
			}
			return nil, fmt.Errorf("%s: %w", kindNames[a.kind], err)
		}
		out = append(out, sample{
			kind:     a.kind,
			at:       a.at,
			latency:  done.Sub(sent),
			intended: done.Sub(due),
			late:     sent.Sub(due),
			bytes:    reqB + respB,
			examples: examples,
		})
	}
}

// replayServe replays the schedule's requests, back to back, through the
// JSON codec of the server's public request and response types and the
// sharded backend, with the live snapshot-refresh cadence.
func replayServe(in serveInput, schedule []arrival, syncEvery, k int, rec *recorder) (time.Duration, error) {
	sh := core.NewSharded(servingGeometry(), core.ShardedOptions{Workers: runtime.GOMAXPROCS(0), SyncEvery: -1})
	defer sh.Close()
	t0 := time.Now()
	for i, a := range schedule {
		op := int32(i)
		root := rec.start("bench.request", op, -1)
		body := in.bodies[a.kind][a.idx]
		var resp interface{}
		switch a.kind {
		case kindUpdate:
			sp := rec.start("server.json_decode", op, root)
			var req server.UpdateRequest
			err := json.Unmarshal(body, &req)
			batch := make([]stream.Example, len(req.Examples))
			for j, e := range req.Examples {
				batch[j] = stream.Example{X: vectorFromJSON(e.X), Y: e.Y}
			}
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			sp = rec.start("core.update_batch", op, root)
			sh.UpdateBatch(batch)
			rec.end(sp)
			resp = server.UpdateResponse{Applied: len(batch), Steps: sh.Steps()}
		case kindPredict:
			sp := rec.start("server.json_decode", op, root)
			var req server.PredictRequest
			err := json.Unmarshal(body, &req)
			x := vectorFromJSON(req.X)
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			sp = rec.start("core.predict", op, root)
			margin := sh.Predict(x)
			rec.end(sp)
			label := -1
			if margin > 0 {
				label = 1
			}
			resp = server.PredictResponse{Margin: margin, Label: label}
		case kindEstimate:
			sp := rec.start("server.json_decode", op, root)
			var req server.EstimateRequest
			err := json.Unmarshal(body, &req)
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			sp = rec.start("core.estimate", op, root)
			ws := make([]server.WeightJSON, len(req.Indices))
			for j, idx := range req.Indices {
				ws[j] = server.WeightJSON{I: idx, W: sh.Estimate(idx)}
			}
			rec.end(sp)
			resp = server.EstimateResponse{Weights: ws}
		case kindTopK:
			sp := rec.start("core.topk", op, root)
			top := sh.TopK(k)
			rec.end(sp)
			fs := make([]server.WeightJSON, len(top))
			for j, w := range top {
				fs[j] = server.WeightJSON{I: w.Index, W: w.Weight}
			}
			resp = server.TopKResponse{K: k, Features: fs}
		}
		sp := rec.start("server.json_encode", op, root)
		_, err := json.Marshal(resp)
		rec.end(sp)
		if err != nil {
			return 0, err
		}
		if (i+1)%syncEvery == 0 {
			sp = rec.start("core.sync", op, root)
			sh.Sync()
			rec.end(sp)
		}
		rec.end(root)
	}
	sh.Sync()
	return time.Since(t0), nil
}

func vectorFromJSON(fs []server.FeatureJSON) stream.Vector {
	x := make(stream.Vector, len(fs))
	for i, f := range fs {
		x[i] = stream.Feature{Index: f.I, Value: f.V}
	}
	return x
}

// flipFirstPredictLabel wraps a handler so that the first predict answer
// carries the wrong label: the fault the predict check must catch.
func flipFirstPredictLabel(h http.Handler) http.Handler {
	var once sync.Once
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		flip := false
		if r.URL.Path == "/v1/predict" {
			once.Do(func() { flip = true })
		}
		if !flip {
			h.ServeHTTP(w, r)
			return
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, r)
		var pr server.PredictResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		pr.Label = -pr.Label
		b, _ := json.Marshal(pr) // a struct of two numbers always encodes
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	})
}
