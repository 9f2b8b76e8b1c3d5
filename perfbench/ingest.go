package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/server"
	"wmsketch/internal/stream"
	"wmsketch/internal/wire"
)

// ingest-bin: a closed loop of pipelined binary-protocol clients feeding
// update frames to Server.ServeBin on the sharded backend. The gradient
// step in core and the frame codec in wire do nearly all the work; there
// is no JSON, HTTP or gossip on the timed path. Frames come from a bounded
// pre-encoded pool replayed cyclically, so memory stays flat however long
// the run.

type ingestConfig struct {
	runOptions
	poolFrames    int // distinct pre-encoded update frames
	frameExamples int // examples per update frame
	conns         int // client connections
	depth         int // frames in flight per connection
	predictEvery  int // update frames per connection between predict probes
	holdout       int
	queryPasses   int // passes of held-out predictions timed as queries
	probes        int
	setupReps     int
	// holdoutMargin bounds |served − reference| holdout error, where the
	// reference is a single-thread AWM-Sketch trained on the same frames.
	// The served two-shard model lands within 0.05 of the reference in
	// most runs and well above it in some (README.md "Known finding").
	holdoutMargin float64
	// replayFrames caps the traced replay.
	replayFrames int
	// fault plants a fault for the benchmark's own tests: "drop-update"
	// counts one frame as sent without sending it.
	fault string
}

func defaultIngestConfig(o runOptions) ingestConfig {
	return ingestConfig{
		runOptions:    o,
		poolFrames:    64,
		frameExamples: 512,
		conns:         2,
		depth:         8,
		predictEvery:  16,
		holdout:       2000,
		queryPasses:   12,
		probes:        256,
		setupReps:     31,
		holdoutMargin: 0.05,
		replayFrames:  2000,
	}
}

// ingestInput is the pre-generated, pre-encoded workload.
type ingestInput struct {
	batches  [][]stream.Example // the pool, decoded
	frames   [][]byte           // the pool, encoded update payloads
	holdout  []stream.Example
	probes   []stream.Example
	probeEnc [][]byte // encoded predict payloads
}

func makeIngestInput(cfg ingestConfig) (ingestInput, error) {
	gen := datagen.RCV1Like(cfg.seed)
	var in ingestInput
	for i := 0; i < cfg.poolFrames; i++ {
		b := gen.Take(cfg.frameExamples)
		p, err := wire.AppendUpdateRequest(nil, b)
		if err != nil {
			return in, err
		}
		in.batches = append(in.batches, b)
		in.frames = append(in.frames, p)
	}
	in.holdout = gen.Take(cfg.holdout)
	in.probes = gen.Take(cfg.probes)
	for _, ex := range in.probes {
		p, err := wire.AppendPredictRequest(nil, ex.X)
		if err != nil {
			return in, err
		}
		in.probeEnc = append(in.probeEnc, p)
	}
	return in, nil
}

// frameAt is the pool index of connection c's k-th frame: connections
// interleave over one global frame sequence.
func (cfg ingestConfig) frameAt(c, k int) int { return (k*cfg.conns + c) % cfg.poolFrames }

// connStats is one client connection's outcome.
type connStats struct {
	frames   int // update frames sent (or, with the drop fault, counted as sent)
	examples int64
	failed   int64
	updates  []timed   // one per update frame: completion, latency, examples
	qryLat   latencies // predict probes between bursts
	err      error
}

func runIngest(cfg ingestConfig) (*report, error) {
	rep := newReport()
	geom := servingGeometry()
	rep.params["frame_examples"] = cfg.frameExamples
	rep.params["pool_frames"] = cfg.poolFrames
	rep.params["connections"] = cfg.conns
	rep.params["depth"] = cfg.depth
	rep.params["predict_every"] = cfg.predictEvery
	rep.params["workers"] = runtime.GOMAXPROCS(0)
	rep.params["geometry"] = fmt.Sprintf("w%d d%d heap%d", geom.Width, geom.Depth, geom.HeapSize)

	in, err := makeIngestInput(cfg)
	if err != nil {
		return nil, err
	}

	// Set-up: server, both listeners, the client handshakes and a first
	// answered ping.
	setup, err := timeReps(cfg.setupReps, func() (func(), error) {
		s, clients, err := startIngest(cfg)
		if err != nil {
			return nil, err
		}
		return func() { closeIngest(s, clients) }, nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	s, clients, err := startIngest(cfg)
	if err != nil {
		return nil, err
	}
	defer func() { closeIngest(s, clients) }()

	stats := make([]connStats, cfg.conns)
	before := readGoCounters()
	start := time.Now()
	end := deadline(cfg.seconds)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = ingestConn(cfg, in, clients[c], c, start, end)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := readGoCounters()
	rep.e2e["heap_inuse_mb"] = heapInuseMB()

	var (
		frames           int
		sent, failed     int64
		updates          []timed
		updLat, probeLat latencies
	)
	for c := range stats {
		if stats[c].err != nil {
			return nil, stats[c].err
		}
		frames += stats[c].frames
		sent += stats[c].examples
		failed += stats[c].failed
		updates = append(updates, stats[c].updates...)
		probeLat = append(probeLat, stats[c].qryLat...)
	}
	for _, u := range updates {
		updLat = append(updLat, u.ms)
	}
	rep.attempted = sent + int64(len(probeLat)+cfg.queryPasses*len(in.holdout))
	rep.failed = failed

	hc := httpClient()
	defer hc.CloseIdleConnections()
	if _, _, err := call(hc, "POST", s.base+"/v1/sync", []byte("{}"), nil); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	m, err := scrape(hc, s.base)
	if err != nil {
		return nil, err
	}
	if applied := m["wmcore_updates_applied_total"]; applied != float64(sent) {
		return nil, failCheck("ingest.applied_counter", "wmcore_updates_applied_total is %.0f, examples sent %d", applied, sent)
	}

	// The held-out predictions double as the query-latency sample: binary
	// predict round trips against the served model once ingest has
	// stopped, in several passes whose quantiles are reported as
	// interquartile means.
	served := make([]float64, len(in.holdout))
	var queryLat latencies
	var qp50, qp90 []float64
	for pass := 0; pass < cfg.queryPasses; pass++ {
		var passLat latencies
		for i, ex := range in.holdout {
			t0 := time.Now()
			if served[i], _, err = clients[0].Predict(ex.X); err != nil {
				return nil, fmt.Errorf("holdout predict: %w", err)
			}
			passLat.add(time.Since(t0))
		}
		qp50 = append(qp50, quantile(passLat, 0.5))
		qp90 = append(qp90, quantile(passLat, 0.9))
		queryLat = append(queryLat, passLat...)
	}
	wrong := 0
	for i, ex := range in.holdout {
		if (served[i] > 0) != (ex.Y > 0) {
			wrong++
		}
	}
	holdout := float64(wrong) / float64(len(in.holdout))

	// Reference: one single-thread AWM-Sketch over the same frame
	// sequence, in global frame order.
	ref := core.NewAWMSketch(geom)
	refStart := time.Now()
	var refExamples int64
	for k := 0; ; k++ {
		any := false
		for c := range stats {
			if k < stats[c].frames {
				any = true
				for _, ex := range in.batches[cfg.frameAt(c, k)] {
					ref.Update(ex.X, ex.Y)
				}
				refExamples += int64(cfg.frameExamples)
			}
		}
		if !any {
			break
		}
	}
	refTime := time.Since(refStart)
	refHoldout := holdoutError(ref.Predict, in.holdout)
	if math.Abs(holdout-refHoldout) > cfg.holdoutMargin {
		return nil, failCheck("ingest.holdout_vs_reference",
			"served holdout error %.4f, single-thread reference %.4f (margin %.2f)", holdout, refHoldout, cfg.holdoutMargin)
	}
	if err := checkpointRoundTrip(hc, s, in.probes); err != nil {
		return nil, err
	}

	rate, q := windowed(updates, elapsed, time.Second, 0.5)
	rep.e2e["ops_per_s"] = rate
	rep.e2e["update_p50_ms"] = q[0]
	rep.e2e["query_p50_ms"] = midMean(qp50)
	rep.e2e["query_p90_ms"] = midMean(qp90)
	rep.e2e["cpu_us_per_op"] = cpuUsPerOp(before, after, sent)
	rep.e2e["bytes_per_op"] = (m[`wmbin_bytes_total{dir="in"}`] + m[`wmbin_bytes_total{dir="out"}`]) / float64(sent)
	rep.addInfo("holdout_error", holdout, "fraction")

	rep.addInfo("updates_per_s", float64(sent)/elapsed.Seconds(), "1/s")
	rep.addInfo("error_rate", float64(failed)/float64(rep.attempted), "fraction")
	rep.addInfo("update_frames", float64(frames), "count")
	updLat.summarize(rep, "update")
	queryLat.summarize(rep, "query")
	probeLat.summarize(rep, "query_under_ingest")
	rep.addInfo("reference_holdout_error", refHoldout, "fraction")
	rep.addInfo("server.bin_update_mean_ms", histMeanMs(m, "wmbin_request_duration_seconds", `{op="update"}`), "ms")
	rep.addInfo("server.updates_applied", m["wmcore_updates_applied_total"], "count")
	rep.addInfo("server.snapshot_refreshes", m["wmcore_snapshot_refreshes_total"], "count")

	if !cfg.trace {
		return rep, nil
	}
	goMetrics(rep, before, after, sent)
	rep.layer["core.step_ns_per_example"] = float64(refTime.Nanoseconds()) / float64(refExamples)

	// Traced replay of the run's frames through the layers' public
	// functions, with the live phase's snapshot-refresh cadence.
	n := min(frames, cfg.replayFrames)
	syncEvery := max(1, int(0.2*float64(frames)/elapsed.Seconds()))
	seq := make([]int, 0, n)
	for k := 0; len(seq) < n; k++ {
		for c := 0; c < cfg.conns && len(seq) < n; c++ {
			seq = append(seq, cfg.frameAt(c, k))
		}
	}
	rec := newRecorder(true)
	tracedWall, err := replayIngest(cfg, in, seq, syncEvery, rec)
	if err != nil {
		return nil, err
	}
	untracedWall, err := replayIngest(cfg, in, seq, syncEvery, newRecorder(false))
	if err != nil {
		return nil, err
	}
	lg := buildLedger(rec, len(seq), elapsed/time.Duration(frames), tracedWall, untracedWall)
	lg.apply(rep, rec)
	rep.spans = rec

	snaps, err := shardSnapshots(geom, runtime.GOMAXPROCS(0), in.batches)
	if err != nil {
		return nil, err
	}
	if err := coreProbe(rep, geom, in.batches, snaps); err != nil {
		return nil, err
	}
	if err := codecProbe(rep, in.batches); err != nil {
		return nil, err
	}
	var pool []stream.Example
	for _, b := range in.batches {
		pool = append(pool, b...)
	}
	if err := clusterProbe(rep, pool, cfg.seed); err != nil {
		return nil, err
	}
	return rep, nil
}

// startIngest starts a server with both listeners and dials the client
// connections, each answering one ping.
func startIngest(cfg ingestConfig) (*liveServer, []*wire.Client, error) {
	s, err := startServer(servingOptions(), true, nil)
	if err != nil {
		return nil, nil, err
	}
	clients := make([]*wire.Client, 0, cfg.conns)
	for c := 0; c < cfg.conns; c++ {
		cl, err := wire.Dial(s.binAddr, 10*time.Second)
		if err == nil {
			err = cl.Ping()
			clients = append(clients, cl)
		}
		if err != nil {
			closeIngest(s, clients)
			return nil, nil, err
		}
	}
	return s, clients, nil
}

func closeIngest(s *liveServer, clients []*wire.Client) {
	for _, cl := range clients {
		_ = cl.Close()
	}
	s.close()
}

// ingestConn drives one connection until end: bursts of depth pipelined
// update frames, then, every predictEvery frames, one predict probe.
func ingestConn(cfg ingestConfig, in ingestInput, cl *wire.Client, c int, start, end time.Time) connStats {
	var st connStats
	calls := make([]*wire.Call, cfg.depth)
	issued := make([]time.Time, cfg.depth)
	sizes := make([]int, cfg.depth)
	probe := c
	for time.Now().Before(end) {
		queued := 0
		for j := 0; j < cfg.depth; j++ {
			idx := cfg.frameAt(c, st.frames)
			st.frames++
			if cfg.fault == "drop-update" && c == 0 && st.frames == 1 {
				st.examples += int64(len(in.batches[idx])) // lost before it reached the server
				continue
			}
			call, err := cl.Go(wire.OpUpdate, in.frames[idx], calls[queued])
			if err != nil {
				st.err = fmt.Errorf("send update: %w", err)
				return st
			}
			calls[queued], issued[queued], sizes[queued] = call, time.Now(), len(in.batches[idx])
			queued++
		}
		if err := cl.Flush(); err != nil {
			st.err = fmt.Errorf("flush: %w", err)
			return st
		}
		for j := 0; j < queued; j++ {
			status, resp, err := calls[j].Wait()
			if err != nil {
				st.err = fmt.Errorf("update: %w", err)
				return st
			}
			now := time.Now()
			st.updates = append(st.updates, timed{at: now.Sub(start), ms: ms(now.Sub(issued[j])), work: float64(sizes[j])})
			st.examples += int64(sizes[j])
			if status != wire.StatusOK {
				st.failed += int64(sizes[j])
				continue
			}
			applied, _, err := wire.DecodeUpdateResponse(resp)
			if err != nil || applied != sizes[j] {
				st.err = failCheck("ingest.update_applied", "update answered applied=%d for %d examples (%v)", applied, sizes[j], err)
				return st
			}
		}
		if st.frames/cfg.predictEvery > len(st.qryLat) {
			t0 := time.Now()
			margin, label, err := cl.Predict(in.probes[probe%len(in.probes)].X)
			st.qryLat.add(time.Since(t0))
			probe += cfg.conns
			if err != nil {
				st.err = fmt.Errorf("predict: %w", err)
				return st
			}
			if (margin > 0) != (label == 1) {
				st.err = failCheck("ingest.predict_label_sign", "label %d for margin %g", label, margin)
				return st
			}
		}
	}
	return st
}

// replayIngest replays the frame sequence through the layers' public
// functions — wire decode, sharded batch update, response encode, the
// periodic snapshot refresh and the predict probes — on a fresh backend.
func replayIngest(cfg ingestConfig, in ingestInput, seq []int, syncEvery int, rec *recorder) (time.Duration, error) {
	sh := core.NewSharded(servingGeometry(), core.ShardedOptions{Workers: runtime.GOMAXPROCS(0), SyncEvery: -1})
	defer sh.Close()
	var (
		nnz  []int
		vec  stream.Vector
		resp []byte
	)
	t0 := time.Now()
	for k, idx := range seq {
		op := int32(k)
		root := rec.start("bench.frame", op, -1)
		sp := rec.start("wire.decode_update", op, root)
		batch, grown, err := wire.DecodeUpdateRequest(in.frames[idx], nnz)
		nnz = grown[:0]
		rec.end(sp)
		if err != nil {
			return 0, err
		}
		sp = rec.start("core.update_batch", op, root)
		sh.UpdateBatch(batch)
		rec.end(sp)
		sp = rec.start("wire.encode_response", op, root)
		resp = wire.AppendUpdateResponse(resp[:0], len(batch), sh.Steps())
		rec.end(sp)
		if (k+1)%syncEvery == 0 {
			sp = rec.start("core.sync", op, root)
			sh.Sync()
			rec.end(sp)
		}
		if (k+1)%cfg.predictEvery == 0 {
			sp = rec.start("wire.decode_predict", op, root)
			x, err := wire.DecodePredictRequest(in.probeEnc[k%len(in.probeEnc)], vec)
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			sp = rec.start("core.predict", op, root)
			margin := sh.Predict(x)
			rec.end(sp)
			vec = x[:0]
			sp = rec.start("wire.encode_response", op, root)
			resp = wire.AppendPredictResponse(resp[:0], margin, 1)
			rec.end(sp)
		}
		rec.end(root)
	}
	sh.Sync()
	return time.Since(t0), nil
}

// checkpointRoundTrip downloads the served model, uploads it into a fresh
// server and requires bit-identical predictions on the probe set.
func checkpointRoundTrip(hc *http.Client, s *liveServer, probes []stream.Example) error {
	resp, err := hc.Get(s.base + "/v1/checkpoint/download")
	if err != nil {
		return err
	}
	var ckpt []byte
	if resp.StatusCode == http.StatusOK {
		ckpt, err = readAllClose(resp)
	} else {
		resp.Body.Close()
		err = fmt.Errorf("checkpoint download: status %d", resp.StatusCode)
	}
	if err != nil {
		return err
	}
	fresh, err := startServer(servingOptions(), false, nil)
	if err != nil {
		return err
	}
	defer fresh.close()
	fc := httpClient()
	defer fc.CloseIdleConnections()
	if _, _, err := call(fc, "POST", fresh.base+"/v1/checkpoint/upload", ckpt, nil); err != nil {
		return failCheck("ingest.checkpoint_roundtrip", "upload: %v", err)
	}
	for i, ex := range probes {
		body, err := jsonBody(server.PredictRequest{X: vectorJSON(ex.X)})
		if err != nil {
			return err
		}
		var a, b server.PredictResponse
		if _, _, err := call(hc, "POST", s.base+"/v1/predict", body, &a); err != nil {
			return err
		}
		if _, _, err := call(fc, "POST", fresh.base+"/v1/predict", body, &b); err != nil {
			return err
		}
		if math.Float64bits(a.Margin) != math.Float64bits(b.Margin) {
			return failCheck("ingest.checkpoint_roundtrip", "probe %d: margin %v served, %v after restore", i, a.Margin, b.Margin)
		}
	}
	return nil
}
