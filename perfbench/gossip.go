package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"wmsketch/internal/cluster"
	"wmsketch/internal/cluster/sim"
	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// gossip-fleet: a fleet of real cluster.Nodes on a virtual clock, driven
// from one goroutine through the benchmark's in-memory transport. Each node
// trains its own partition of one RCV1-like stream for the first rounds,
// then the fleet gossips until every node holds every origin's final
// version. Delta build, encode, decode, apply and the full-fleet re-merge
// do the work; there is no HTTP, JSON or binary wire. Fleets run back to
// back until the timed phase ends.

// fleetConfig shapes one fleet.
type fleetConfig struct {
	nodes       int
	peers       int // gossip-graph degree: a ring plus seeded random chords
	trainRounds int
	chunk       int // examples each node trains per training round
	maxQuiesce  int // rounds after training within which the fleet must converge
	holdout     int
	geom        core.Config
	// fault plants a transport fault for the benchmark's own tests:
	// "drop" withholds every frame bound for the first node, "flip"
	// rewrites one pushed frame so its receiver must reject it.
	fault string
}

// fleetGeometry is the cluster simulator's sketch geometry, so this
// workload and `make bench-sim` measure the same per-origin state size.
func fleetGeometry() core.Config {
	return core.Config{Width: 128, Depth: 1, HeapSize: 16, Lambda: 1e-6, Seed: 7}
}

func mixOptions(g core.Config) core.MixOptions {
	return core.MixOptions{Depth: g.Depth, Width: g.Width, Seed: g.Seed, HeapSize: g.HeapSize}
}

// fleetInput is one fleet's pre-generated data: disjoint partitions of one
// stream, one per node, and held-out examples from the same stream.
type fleetInput struct {
	seed    int64
	parts   [][]stream.Example
	holdout []stream.Example
}

func makeFleetInput(cfg fleetConfig, seed int64) fleetInput {
	gen := datagen.RCV1Like(seed)
	return splitFleetInput(cfg, seed, gen.Take(cfg.nodes*cfg.trainRounds*cfg.chunk), gen.Take(cfg.holdout))
}

// splitFleetInput deals examples round-robin into one partition per node.
func splitFleetInput(cfg fleetConfig, seed int64, examples, holdout []stream.Example) fleetInput {
	in := fleetInput{seed: seed, parts: make([][]stream.Example, cfg.nodes), holdout: holdout}
	for i, ex := range examples {
		in.parts[i%cfg.nodes] = append(in.parts[i%cfg.nodes], ex)
	}
	return in
}

type fleetNode struct {
	id    string
	learn *core.AWMSketch
	node  *cluster.Node
}

// fleet is one run's world: nodes, virtual clock and transport counters.
type fleet struct {
	cfg   fleetConfig
	in    fleetInput
	clock *cluster.VirtualClock
	nodes []*fleetNode
	byID  map[string]*fleetNode

	rec    *recorder
	op     int32 // replayed op (node-round) the transport's spans belong to
	parent int32 // span the transport's spans nest under

	transportErrors int
	flipped         bool
}

func fleetNodeID(i int) string { return fmt.Sprintf("n%03d", i) }

// newFleet builds the nodes and publishes each one's (empty) local model:
// the set-up the workload's setup_s times.
func newFleet(cfg fleetConfig, in fleetInput, rec *recorder) (*fleet, error) {
	f := &fleet{
		cfg:   cfg,
		in:    in,
		clock: cluster.NewVirtualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)),
		byID:  make(map[string]*fleetNode, cfg.nodes),
		rec:   rec,
		op:    -1,
	}
	rng := rand.New(rand.NewSource(in.seed))
	for i := 0; i < cfg.nodes; i++ {
		n := &fleetNode{id: fleetNodeID(i), learn: core.NewAWMSketch(cfg.geom)}
		node, err := cluster.NewNode(cluster.Config{
			Self:         n.id,
			Peers:        topology(rng, i, cfg.nodes, cfg.peers),
			Mix:          mixOptions(cfg.geom),
			Local:        n.learn,
			Interval:     -1, // rounds are driven by the benchmark
			HistoryDepth: 2,
			Clock:        f.clock,
			Transport:    fleetTransport{f: f},
			Seed:         in.seed + int64(i)*7919,
		})
		if err != nil {
			return nil, err
		}
		if _, _, err := node.PublishLocal(); err != nil {
			return nil, err
		}
		n.node = node
		f.nodes = append(f.nodes, n)
		f.byID[n.id] = n
	}
	return f, nil
}

// topology links node i to its ring neighbours plus random chords.
func topology(rng *rand.Rand, i, n, degree int) []string {
	if degree >= n {
		degree = n - 1
	}
	peers := map[int]bool{(i + 1) % n: true, (i - 1 + n) % n: true}
	for len(peers) < degree {
		if j := rng.Intn(n); j != i {
			peers[j] = true
		}
	}
	ids := make([]int, 0, len(peers))
	for j := range peers {
		ids = append(ids, j)
	}
	sort.Ints(ids)
	out := make([]string, len(ids))
	for k, j := range ids {
		out[k] = fleetNodeID(j)
	}
	return out
}

// fleetTransport is the in-memory cluster.Transport: Pull asks the peer
// for its frames and encodes them, Push decodes a stream and applies it at
// the peer. Each step is one span in a traced run.
type fleetTransport struct{ f *fleet }

func (t fleetTransport) Pull(_ context.Context, peer string, req cluster.PullRequest) (io.ReadCloser, error) {
	f := t.f
	dst := f.byID[peer]
	if dst == nil {
		f.transportErrors++
		return nil, fmt.Errorf("no node %q", peer)
	}
	sp := f.rec.start("cluster.build_frames", f.op, f.parent)
	frames := dst.node.BuildFrames(req.Digest, true)
	f.rec.end(sp)
	if f.cfg.fault == "drop" && req.From == fleetNodeID(0) {
		frames = nil
	}
	var buf bytes.Buffer
	sp = f.rec.start("cluster.encode", f.op, f.parent)
	_, err := cluster.WriteFrames(&buf, frames)
	f.rec.end(sp)
	if err != nil {
		f.transportErrors++
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(buf.Bytes())), nil
}

func (t fleetTransport) Push(_ context.Context, peer string, stream []byte) error {
	f := t.f
	dst := f.byID[peer]
	if dst == nil {
		f.transportErrors++
		return fmt.Errorf("no node %q", peer)
	}
	sp := f.rec.start("cluster.decode", f.op, f.parent)
	frames, err := cluster.ReadFrames(bytes.NewReader(stream))
	f.rec.end(sp)
	if err != nil {
		f.transportErrors++
		return err
	}
	switch {
	case f.cfg.fault == "drop" && peer == fleetNodeID(0):
		return nil
	case f.cfg.fault == "flip" && !f.flipped && len(frames) > 0:
		frames[0].Origin = peer // a frame claiming the receiver's own origin
		f.flipped = true
	}
	sp = f.rec.start("cluster.apply", f.op, f.parent)
	dst.node.ApplyFrames(frames)
	f.rec.end(sp)
	return nil
}

// fleetResult is one fleet run's outcome.
type fleetResult struct {
	nodeRounds       int
	roundLat         latencies // training rounds: one node's publish + gossip round
	queryLat         latencies // training rounds: one view read (re-merge) + predict
	roundsToConverge int
	converged        bool
	streamBytes      int64
	fullsBuilt       int64
	deltasBuilt      int64
	stale, rejected  int64
	holdoutErr       float64
}

// run drives rounds until the fleet converges or the quiesce budget ends.
func (f *fleet) run() fleetResult {
	var res fleetResult
	cfg := f.cfg
	last := cfg.trainRounds - 1
	for round := 0; ; round++ {
		for i, n := range f.nodes {
			op := int32(res.nodeRounds)
			root := f.rec.start("bench.node_round", op, -1)
			if round < cfg.trainRounds {
				sp := f.rec.start("core.train", op, root)
				part := f.in.parts[i]
				lo, hi := round*cfg.chunk, (round+1)*cfg.chunk
				if hi > len(part) {
					hi = len(part)
				}
				for _, ex := range part[lo:hi] {
					n.learn.Update(ex.X, ex.Y)
				}
				f.rec.end(sp)
			}
			t0 := time.Now()
			sp := f.rec.start("cluster.publish", op, root)
			_, _, _ = n.node.PublishLocal() // a local AWMSketch snapshot cannot fail
			f.rec.end(sp)
			sp = f.rec.start("cluster.round", op, root)
			f.op, f.parent = op, sp
			n.node.GossipOnce()
			f.op, f.parent = -1, -1
			f.rec.end(sp)
			t1 := time.Now()
			sp = f.rec.start("cluster.view", op, root)
			probe := f.in.holdout[res.nodeRounds%len(f.in.holdout)]
			_ = n.node.View().Predict(probe.X)
			f.rec.end(sp)
			t2 := time.Now()
			f.rec.end(root)
			if round < cfg.trainRounds {
				// Training rounds always publish new local state, so every
				// view read rebuilds: one mode, not a mix of rebuilds and
				// no-ops.
				res.roundLat.add(t1.Sub(t0))
				res.queryLat.add(t2.Sub(t1))
			}
			res.nodeRounds++
		}
		f.clock.Advance(2 * time.Second)
		if round >= last && f.converged() {
			res.converged, res.roundsToConverge = true, round-last
			break
		}
		if round >= last+cfg.maxQuiesce {
			res.roundsToConverge = round - last
			break
		}
	}
	for _, n := range f.nodes {
		st := n.node.Status()
		res.streamBytes += st.BytesIn + st.BytesOut
		res.fullsBuilt += st.FullsOut
		res.deltasBuilt += st.DeltasOut
		res.stale += st.StaleDropped
		res.rejected += st.RejectedFrames
	}
	return res
}

// converged reports whether every node holds every origin at the version
// its learner finished training at.
func (f *fleet) converged() bool {
	for _, n := range f.nodes {
		d := n.node.Digest()
		for _, o := range f.nodes {
			if d[o.id] != o.learn.Steps() {
				return false
			}
		}
	}
	return true
}

// check compares every node's view with core.MixSnapshots over every
// node's final local snapshot, and fails on rejected frames, transport
// errors or a fleet that did not converge. It also measures the holdout
// error of the first node's view.
func (f *fleet) check(res *fleetResult) error {
	snaps := make([]core.Snapshot, 0, len(f.nodes))
	for _, n := range f.nodes {
		sn, err := n.learn.ModelSnapshot()
		if err != nil {
			return err
		}
		sn.Origin = n.id
		sn.Heavy = append([]stream.Weighted(nil), sn.Heavy...)
		stream.SortWeighted(sn.Heavy)
		snaps = append(snaps, sn)
	}
	want, err := core.MixSnapshots(snaps, mixOptions(f.cfg.geom))
	if err != nil {
		return err
	}
	const evalFeatures = 2048
	for _, n := range f.nodes {
		view := n.node.View()
		var num, den float64
		for i := uint32(0); i < evalFeatures; i++ {
			g, w := view.Estimate(i), want.Estimate(i)
			num += (g - w) * (g - w)
			den += w * w
		}
		rel := 1.0
		if den > 0 {
			rel = math.Sqrt(num / den)
		}
		if rel > sim.RelErrGate {
			return failCheck("gossip.view_matches_union",
				"node %s view is %.4g from the mix of every final local snapshot (gate %.2g)", n.id, rel, sim.RelErrGate)
		}
	}
	if res.rejected != 0 {
		return failCheck("gossip.rejected_frames", "%d frames rejected", res.rejected)
	}
	if f.transportErrors != 0 {
		return failCheck("gossip.transport_errors", "%d transport errors", f.transportErrors)
	}
	if !res.converged {
		return failCheck("gossip.converged", "not converged %d rounds after training ended", f.cfg.maxQuiesce)
	}
	res.holdoutErr = holdoutError(f.nodes[0].node.View().Predict, f.in.holdout)
	return nil
}

// holdoutError is the share of held-out examples whose margin has the
// wrong sign.
func holdoutError(predict func(stream.Vector) float64, holdout []stream.Example) float64 {
	if len(holdout) == 0 {
		return 0
	}
	wrong := 0
	for _, ex := range holdout {
		if (predict(ex.X) > 0) != (ex.Y > 0) {
			wrong++
		}
	}
	return float64(wrong) / float64(len(holdout))
}

// runFleet builds, runs and checks one fleet.
func runFleet(cfg fleetConfig, in fleetInput, rec *recorder) (*fleet, fleetResult, error) {
	f, err := newFleet(cfg, in, rec)
	if err != nil {
		return nil, fleetResult{}, err
	}
	res := f.run()
	if err := f.check(&res); err != nil {
		return f, res, err
	}
	return f, res, nil
}

// clusterLayerMetrics fills the cluster.* per-layer metrics from a traced
// fleet run: mean span times and the fleet's frame and byte counts.
func clusterLayerMetrics(rep *report, rec *recorder, res fleetResult) {
	stats := rec.selfTimes()
	for _, name := range []string{"apply", "build_frames", "encode", "decode", "publish", "view", "round"} {
		rep.layer["cluster."+name+"_us"] = meanUs(stats, "cluster."+name)
	}
	rep.layer["cluster.frames_full"] = float64(res.fullsBuilt)
	rep.layer["cluster.frames_delta"] = float64(res.deltasBuilt)
	ratio := 0.0
	if built := res.fullsBuilt + res.deltasBuilt; built > 0 {
		ratio = float64(res.deltasBuilt) / float64(built)
	}
	rep.layer["cluster.delta_ratio"] = ratio
	rep.layer["cluster.stream_bytes"] = float64(res.streamBytes)
	rep.layer["cluster.stale_frames"] = float64(res.stale)
	rep.layer["cluster.rejected_frames"] = float64(res.rejected)
}

// ---- the workload ----

type gossipConfig struct {
	runOptions
	fleet     fleetConfig
	inputSets int // distinct fleet inputs, replayed cyclically
	setupReps int
}

func defaultGossipConfig(o runOptions) gossipConfig {
	return gossipConfig{
		runOptions: o,
		fleet: fleetConfig{
			nodes: 48, peers: 6, trainRounds: 6, chunk: 32, maxQuiesce: 40,
			holdout: 1000, geom: fleetGeometry(),
		},
		inputSets: 12,
		setupReps: 31,
	}
}

func runGossip(cfg gossipConfig) (*report, error) {
	rep := newReport()
	fc := cfg.fleet
	rep.params["nodes"] = fc.nodes
	rep.params["peers_per_node"] = fc.peers
	rep.params["train_rounds"] = fc.trainRounds
	rep.params["chunk"] = fc.chunk
	rep.params["geometry"] = fmt.Sprintf("w%d d%d heap%d", fc.geom.Width, fc.geom.Depth, fc.geom.HeapSize)
	rep.params["input_sets"] = cfg.inputSets

	inputs := make([]fleetInput, cfg.inputSets)
	for k := range inputs {
		inputs[k] = makeFleetInput(fc, cfg.seed*1000+int64(k))
	}

	setup, err := timeReps(cfg.setupReps, func() (func(), error) {
		f, err := newFleet(fc, inputs[0], newRecorder(false))
		if err != nil {
			return nil, err
		}
		return func() { runtime.KeepAlive(f) }, nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	// Timed phase: whole fleets, back to back.
	var (
		roundLat, queryLat latencies
		nodeRounds         int
		fleets             int
		bytes              int64
		converge, holdout  []float64
		lastFleet          *fleet
		// Per-fleet figures; the run reports their interquartile means.
		rate, rp50, qp50, qp90 []float64
	)
	before := readGoCounters()
	start := time.Now()
	end := deadline(cfg.seconds)
	for fleets == 0 || time.Now().Before(end) {
		in := inputs[fleets%len(inputs)]
		t0 := time.Now()
		f, res, err := runFleet(fc, in, newRecorder(false))
		if err != nil {
			return nil, err
		}
		rate = append(rate, float64(res.nodeRounds)/time.Since(t0).Seconds())
		rp50 = append(rp50, quantile(res.roundLat, 0.5))
		qp50 = append(qp50, quantile(res.queryLat, 0.5))
		qp90 = append(qp90, quantile(res.queryLat, 0.9))
		lastFleet = f
		fleets++
		nodeRounds += res.nodeRounds
		roundLat = append(roundLat, res.roundLat...)
		queryLat = append(queryLat, res.queryLat...)
		bytes += res.streamBytes
		converge = append(converge, float64(res.roundsToConverge))
		holdout = append(holdout, res.holdoutErr)
	}
	elapsed := time.Since(start)
	after := readGoCounters()
	rep.e2e["heap_inuse_mb"] = heapInuseMB()
	runtime.KeepAlive(lastFleet)

	rep.attempted, rep.failed = int64(nodeRounds), 0
	rep.e2e["ops_per_s"] = midMean(rate)
	rep.e2e["update_p50_ms"] = midMean(rp50)
	rep.e2e["query_p50_ms"] = midMean(qp50)
	rep.e2e["query_p90_ms"] = midMean(qp90)
	rep.e2e["cpu_us_per_op"] = cpuUsPerOp(before, after, int64(nodeRounds))
	rep.e2e["bytes_per_op"] = float64(bytes) / float64(nodeRounds)
	rep.addInfo("holdout_error", mean(holdout), "fraction")

	rep.addInfo("fleets", float64(fleets), "count")
	rep.addInfo("node_rounds_per_s", float64(nodeRounds)/elapsed.Seconds(), "1/s")
	rep.addInfo("gossip_bytes_per_node_round", float64(bytes)/float64(nodeRounds), "B")
	rep.addInfo("rounds_to_converge", mean(converge), "rounds")
	roundLat.summarize(rep, "round")
	queryLat.summarize(rep, "query")

	if !cfg.trace {
		return rep, nil
	}
	goMetrics(rep, before, after, int64(nodeRounds))

	// Traced replay: the first input's fleet again, with spans, then once
	// more without, for the tracing overhead.
	rec := newRecorder(true)
	t0 := time.Now()
	traced, tres, err := runFleet(fc, inputs[0], rec)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(t0)
	t0 = time.Now()
	if _, _, err := runFleet(fc, inputs[0], newRecorder(false)); err != nil {
		return nil, err
	}
	untracedWall := time.Since(t0)
	lg := buildLedger(rec, tres.nodeRounds, elapsed/time.Duration(nodeRounds), tracedWall, untracedWall)
	lg.apply(rep, rec)
	clusterLayerMetrics(rep, rec, tres)
	rep.spans = rec

	// Layer probes on this workload's inputs: each node's training chunks
	// are the update batches, and the mix is over every node's snapshot.
	var batches [][]stream.Example
	for _, part := range inputs[0].parts {
		for lo := 0; lo+fc.chunk <= len(part); lo += fc.chunk {
			batches = append(batches, part[lo:lo+fc.chunk])
		}
	}
	snaps := make([]core.Snapshot, 0, len(traced.nodes))
	for _, n := range traced.nodes {
		sn, err := n.learn.ModelSnapshot()
		if err != nil {
			return nil, err
		}
		sn.Origin = n.id
		snaps = append(snaps, sn)
	}
	if err := coreProbe(rep, fc.geom, batches, snaps); err != nil {
		return nil, err
	}
	if err := codecProbe(rep, batches); err != nil {
		return nil, err
	}
	return rep, nil
}
