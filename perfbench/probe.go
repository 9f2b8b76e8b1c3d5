package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/server"
	"wmsketch/internal/stream"
	"wmsketch/internal/wire"
)

// Layer probes: each times one layer's public functions on the workload's
// own recorded batches, so every traced run reports every layer — on the
// workload whose path runs through it, and as a control on the others.

// coreProbe measures the core layer at the workload's geometry: the
// single-thread step over every example in batches, a sharded learner's
// batch update and snapshot refresh, the snapshot mix over snaps, and a
// checkpoint round trip.
func coreProbe(rep *report, geom core.Config, batches [][]stream.Example, snaps []core.Snapshot) error {
	if len(batches) == 0 {
		return fmt.Errorf("core probe: no batches")
	}
	a := core.NewAWMSketch(geom)
	n := 0
	t0 := time.Now()
	for _, b := range batches {
		for _, ex := range b {
			a.Update(ex.X, ex.Y)
		}
		n += len(b)
	}
	if _, ok := rep.layer["core.step_ns_per_example"]; !ok {
		rep.layer["core.step_ns_per_example"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}

	// UpdateBatch only enqueues; the closing Sync waits until the workers
	// have applied every batch, so the mean covers the gradient step.
	sh := core.NewSharded(geom, core.ShardedOptions{Workers: runtime.GOMAXPROCS(0), SyncEvery: -1})
	defer sh.Close()
	t0 = time.Now()
	for _, b := range batches {
		sh.UpdateBatch(b)
	}
	sh.Sync()
	rep.layer["core.update_batch_us"] = us(time.Since(t0)) / float64(len(batches))

	// A refresh with no updates pending: snapshot every shard and merge.
	const reps = 20
	var syncTotal time.Duration
	for i := 0; i < reps; i++ {
		sh.UpdateBatch(batches[i%len(batches)])
		sh.Sync()
		t0 = time.Now()
		sh.Sync()
		syncTotal += time.Since(t0)
	}
	rep.layer["core.sync_ms"] = ms(syncTotal) / reps

	var mixTotal time.Duration
	for i := 0; i < reps; i++ {
		t0 = time.Now()
		if _, err := core.MixSnapshots(snaps, mixOptions(geom)); err != nil {
			return fmt.Errorf("core probe: mix: %w", err)
		}
		mixTotal += time.Since(t0)
	}
	rep.layer["core.mix_ms"] = ms(mixTotal) / reps

	var buf bytes.Buffer
	t0 = time.Now()
	if _, err := sh.WriteTo(&buf); err != nil {
		return fmt.Errorf("core probe: checkpoint write: %w", err)
	}
	rep.layer["core.checkpoint_write_ms"] = ms(time.Since(t0))
	rep.layer["core.checkpoint_bytes"] = float64(buf.Len())
	t0 = time.Now()
	loaded, err := core.LoadSharded(bytes.NewReader(buf.Bytes()), nil, nil, core.ShardedOptions{SyncEvery: -1})
	if err != nil {
		return fmt.Errorf("core probe: checkpoint read: %w", err)
	}
	rep.layer["core.checkpoint_read_ms"] = ms(time.Since(t0))
	loaded.Close()
	return nil
}

// shardSnapshots trains one AWM-Sketch per worker on its round-robin share
// of batches and returns their snapshots: the inputs of the sharded
// backend's merge.
func shardSnapshots(geom core.Config, workers int, batches [][]stream.Example) ([]core.Snapshot, error) {
	shards := make([]*core.AWMSketch, workers)
	for i := range shards {
		shards[i] = core.NewAWMSketch(geom)
	}
	for i, b := range batches {
		for _, ex := range b {
			shards[i%workers].Update(ex.X, ex.Y)
		}
	}
	snaps := make([]core.Snapshot, workers)
	for i, s := range shards {
		sn, err := s.ModelSnapshot()
		if err != nil {
			return nil, err
		}
		sn.Origin = fmt.Sprintf("%06d", i)
		snaps[i] = sn
	}
	return snaps, nil
}

// codecProbe times the binary and JSON codecs on the workload's update
// batches: the binary update decode, the binary update-response encode, the JSON
// update decode into the server's request type and the JSON predict
// response encode.
func codecProbe(rep *report, batches [][]stream.Example) error {
	var (
		decodeTotal, jsonTotal time.Duration
		frameBytes             int
		payload                []byte
		nnz                    []int
	)
	for _, b := range batches {
		var err error
		payload, err = wire.AppendUpdateRequest(payload[:0], b)
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		frameBytes += wire.FrameWireSize(len(payload))
		t0 := time.Now()
		_, nnz, err = wire.DecodeUpdateRequest(payload, nnz)
		decodeTotal += time.Since(t0)
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}

		body, err := json.Marshal(server.UpdateRequest{Examples: examplesJSON(b)})
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		var req server.UpdateRequest
		t0 = time.Now()
		err = json.Unmarshal(body, &req)
		jsonTotal += time.Since(t0)
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
	}
	nb := float64(len(batches))
	rep.layer["wire.decode_update_us"] = us(decodeTotal) / nb
	rep.layer["wire.update_frame_bytes"] = float64(frameBytes) / nb
	rep.layer["server.json_decode_update_us"] = us(jsonTotal) / nb

	// Response encodes are tens of nanoseconds: time them in a loop.
	const reps = 100000
	var dst []byte
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		dst = wire.AppendUpdateResponse(dst[:0], len(batches[i%len(batches)]), int64(i))
	}
	rep.layer["wire.encode_response_us"] = us(time.Since(t0)) / reps
	t0 = time.Now()
	for i := 0; i < reps/10; i++ {
		if _, err := json.Marshal(server.PredictResponse{Margin: float64(i) * 0.37, Label: 1}); err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
	}
	rep.layer["server.json_encode_predict_us"] = us(time.Since(t0)) / (reps / 10)
	return nil
}

// examplesJSON converts a batch to the server's JSON example type.
func examplesJSON(batch []stream.Example) []server.ExampleJSON {
	out := make([]server.ExampleJSON, len(batch))
	for i, ex := range batch {
		out[i] = server.ExampleJSON{Y: ex.Y, X: vectorJSON(ex.X)}
	}
	return out
}

func vectorJSON(x stream.Vector) []server.FeatureJSON {
	out := make([]server.FeatureJSON, len(x))
	for i, f := range x {
		out[i] = server.FeatureJSON{I: f.Index, V: f.Value}
	}
	return out
}

// clusterProbe runs a small traced fleet trained on the workload's own
// examples, for the cluster.* metrics of the serving workloads.
func clusterProbe(rep *report, examples []stream.Example, seed int64) error {
	cfg := fleetConfig{nodes: 8, peers: 4, trainRounds: 4, maxQuiesce: 40, geom: fleetGeometry()}
	cfg.chunk = len(examples) / (cfg.nodes * cfg.trainRounds)
	if cfg.chunk < 1 {
		return fmt.Errorf("cluster probe: %d examples are too few", len(examples))
	}
	holdout := examples[:min(len(examples), 256)]
	in := splitFleetInput(cfg, seed, examples[:cfg.nodes*cfg.trainRounds*cfg.chunk], holdout)
	rec := newRecorder(true)
	_, res, err := runFleet(cfg, in, rec)
	if err != nil {
		return err
	}
	clusterLayerMetrics(rep, rec, res)
	return nil
}
