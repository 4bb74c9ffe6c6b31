package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps/bgp"
	"repro/internal/cryptoutil"
	"repro/internal/eval"
	"repro/internal/seclog"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// Sizes of the simulated Quagga deployment.
const (
	// recordUpdates/recordDuration size one sim-record iteration: long
	// enough to be dominated by the trace, short enough that a run holds
	// dozens of iterations.
	recordUpdates  = 60
	recordDuration = 10 * types.Second
	// setupRepeats is how often a workload sets up; setup_s is the median.
	setupRepeats = 5
)

// simDeployment is one recorded, store-backed Quagga run on the
// deterministic simulator.
type simDeployment struct {
	net    *simnet.Net
	bgp    *bgp.Deployment
	dur    types.Time
	logDir string
	runDur time.Duration // wall time of Net.Run
	// runCrypto is the cryptoutil time recorded during Net.Run (traced
	// runs only).
	runCrypto time.Duration
}

// recordQuagga deploys the 10-AS Quagga topology (bgp.DefaultTopology) on
// the serial simulator with logs in an on-disk segment store under logDir,
// injects trace at the stub networks evenly over dur (as eval's Quagga run
// does), and runs it. At the end every node's synced log is sealed into one
// table, so audits read sealed, mmap'd history as they would on a
// long-running node. suite is nil for the default suite; runLane, when set,
// gets one simnet.run span around Net.Run, and the cryptoutil time the
// background lane records meanwhile is kept as runCrypto.
func recordQuagga(seed int64, trace []workload.BGPUpdate, dur types.Time, logDir string,
	suite cryptoutil.Suite, runLane *Lane) (*simDeployment, error) {
	cfg := simnet.DefaultConfig()
	cfg.Seed = seed
	cfg.Core.LogDir = logDir
	cfg.Core.LogHotTail = eval.DefaultHotTail
	if suite != nil {
		cfg.Core.Suite = suite
	}
	net := simnet.New(cfg)
	d, err := bgp.Deploy(net, bgp.DefaultTopology(), types.Second, dur)
	if err != nil {
		_ = net.CloseLogs()
		return nil, err
	}
	for i, u := range trace {
		u := u
		at := types.Second + types.Time(int64(i))*(dur-5*types.Second)/types.Time(len(trace))
		stub := stubs[u.Origin]
		net.AtNode(stub, at, func() {
			sp := d.Speakers[stub]
			if u.Withdraw {
				sp.Withdraw(net.Node(stub), u.Prefix)
			} else {
				sp.Announce(net.Node(stub), u.Prefix)
			}
		})
	}
	var crypto0 time.Duration
	if runLane != nil {
		crypto0 = runLane.tr.Background().totalOf(cryptoSpans...)
	}
	start := time.Now()
	runLane.Do(spanRun, func() { net.Run(dur) })
	sd := &simDeployment{net: net, bgp: d, dur: dur, logDir: logDir, runDur: time.Since(start)}
	if runLane != nil {
		sd.runCrypto = runLane.tr.Background().totalOf(cryptoSpans...) - crypto0
	}
	for _, id := range net.Nodes() {
		// The default seal threshold (256 KiB of synced tail) is above a
		// node's whole log here; seal whatever the sync finds instead.
		net.Node(id).Log.SetStoreTuning(1, 0)
	}
	err = net.SyncLogs()
	for _, id := range net.Nodes() {
		if nerr := net.Node(id).Err(); nerr != nil && err == nil {
			err = fmt.Errorf("node %s faulted: %w", id, nerr)
		}
	}
	if err != nil {
		sd.close()
		return nil, err
	}
	return sd, nil
}

func (d *simDeployment) close() {
	_ = d.net.CloseLogs() // the store is temporary and removed next
	_ = os.RemoveAll(d.logDir)
}

// exactSeries returns the deployment's deterministic figures: the Fig. 5
// traffic factor, Fig. 6 log growth, and the operation counts behind them.
func (d *simDeployment) exactSeries() map[string]float64 {
	res := &eval.RunResult{Config: eval.Quagga, Net: d.net, Duration: d.dur}
	f5, f6 := eval.Figure5(res), eval.Figure6(res)
	cs := d.net.CryptoStats()
	return map[string]float64{
		"traffic_factor":          f5.Factor,
		"log_mb_per_node_min":     f6.MBPerMin,
		"simnet.messages":         float64(f5.Messages),
		"cryptoutil.signs":        float64(cs.Signs),
		"cryptoutil.verifies":     float64(cs.Verifies),
		"cryptoutil.hashed_bytes": float64(cs.HashedBytes),
		"seclog.entries_appended": float64(f6.Entries),
		"seclog.log_bytes":        float64(f6.TotalBytes),
	}
}

// storeTables counts the sealed segment-store tables across nodes.
func (d *simDeployment) storeTables() int {
	n := 0
	for _, id := range d.net.Nodes() {
		n += d.net.Node(id).Log.StoreTables()
	}
	return n
}

// replayInputs feeds every node's logged input events, in log order, to a
// fresh machine built by factory: the same Step sequence the node's own
// machine ran while recording (this mirrors core's crash-recovery replay).
// It returns how many steps ran. The simulator's nodes hold concrete dlog
// machines the BGP speaker inspects, so this is how sim-record times dlog
// from outside.
func (d *simDeployment) replayInputs(factory types.MachineFactory) (int, error) {
	steps := 0
	for _, id := range d.net.Nodes() {
		node := d.net.Node(id)
		m := factory(id)
		for seq := node.Log.FirstSeq(); seq <= node.Log.Len(); seq++ {
			e, err := node.Log.Entry(seq)
			if err != nil {
				return steps, fmt.Errorf("reading %s entry %d: %w", id, seq, err)
			}
			switch e.Type {
			case seclog.EIns:
				m.Step(types.Event{Kind: types.EvIns, Node: id, Time: e.T,
					Tuple: e.Tuple, MaybeRule: e.MaybeRule, MaybeBody: e.MaybeBody, Replaces: e.Replaces})
				steps++
			case seclog.EDel:
				m.Step(types.Event{Kind: types.EvDel, Node: id, Time: e.T,
					Tuple: e.Tuple, MaybeRule: e.MaybeRule, MaybeBody: e.MaybeBody})
				steps++
			case seclog.ERcv:
				for j := range e.Msgs {
					msg := e.Msgs[j]
					m.Step(types.Event{Kind: types.EvRcv, Node: id, Time: e.T, Msg: &msg, SameBatch: j > 0})
					steps++
				}
			}
		}
	}
	return steps, nil
}

// runSimRecord is the write path on the simulator: each iteration records
// the seeded trace on a fresh store-backed deployment, with the process-wide
// signature-verification cache reset first so no iteration replays another's
// verifications.
func runSimRecord(cfg runConfig) (*report, error) {
	rep := &report{}
	var lane *Lane
	var suite cryptoutil.Suite
	if cfg.tracer != nil {
		// The nested lane holds only the simnet.run span and the replayed
		// dlog steps. Node keys and the store's hashing record on the
		// background lane, which is safe for the store's compactor
		// goroutine too.
		lane = cfg.tracer.Lane()
		suite = timedSuite{cryptoutil.Ed25519SHA256, cfg.tracer.Background()}
	}
	iter := 0
	record := func(trace []workload.BGPUpdate) (*simDeployment, error) {
		iter++
		cryptoutil.DefaultVerifyCache.Reset()
		return recordQuagga(cfg.seed, trace, recordDuration,
			filepath.Join(cfg.workDir, fmt.Sprintf("iter%d", iter)), suite, lane)
	}

	// Set-up: generate the inputs and record them once untimed; repeated,
	// and every repetition must give the same exact series.
	var trace []workload.BGPUpdate
	var ref map[string]float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		trace = bgpTrace(cfg.seed, recordUpdates)
		d, err := record(trace)
		if err != nil {
			return nil, fmt.Errorf("set-up record: %w", err)
		}
		rep.setups = append(rep.setups, time.Since(start))
		series := d.exactSeries()
		d.close()
		if ref == nil {
			ref = series
		} else {
			compareSeries(rep, "set-up", ref, series)
		}
	}
	if cfg.tracer != nil {
		cfg.tracer.Reset()
	}

	var (
		verifies  float64
		hits      float64
		tables    int
		steps     int
		runCrypto time.Duration
		p0        = sampleProc()
		begin     = time.Now()
	)
	for time.Since(begin) < cfg.seconds {
		lane.SetOp(uint64(iter + 1))
		rep.attempted++
		d, err := record(trace)
		if err != nil {
			rep.fail("iteration %d: %v", iter, err)
			continue
		}
		rep.lat = append(rep.lat, d.runDur)
		compareSeries(rep, fmt.Sprintf("iteration %d", iter), ref, d.exactSeries())
		cs := d.net.CryptoStats()
		verifies += float64(cs.Verifies)
		hits += float64(cs.VerifyCacheHits)
		tables += d.storeTables()
		runCrypto += d.runCrypto
		if lane != nil {
			n, err := d.replayInputs(timedFactory(bgp.Factory(), lane))
			if err != nil {
				rep.fail("iteration %d: replaying inputs: %v", iter, err)
			}
			steps += n
		}
		d.close()
	}
	p1 := sampleProc()
	ops := float64(len(rep.lat))
	// Messages per second of the median iteration: every iteration delivers
	// the same messages, and the median ignores iterations a noisy
	// neighbour slowed.
	rep.throughput = ref["simnet.messages"] / (rep.lat.ms(50) / 1000)
	rep.exact = ref
	rep.show("traffic_factor", "ratio", ref["traffic_factor"])
	rep.show("log_mb_per_node_min", "MiB/min", ref["log_mb_per_node_min"])
	rep.note("an op is one recording of the %d-update trace (%v simulated); latency is its Net.Run wall time", len(trace), recordDuration)
	rep.note("verification cache hit ratio %.4f over %.0f logical verifies", hits/max(verifies, 1), verifies)

	if cfg.tracer != nil {
		L := newLayerSet(cfg.tracer.Totals(), ops, p0, p1)
		for _, k := range []string{"cryptoutil.signs", "cryptoutil.verifies", "cryptoutil.hashed_bytes",
			"simnet.messages", "seclog.entries_appended", "seclog.log_bytes"} {
			L.m[k] = ref[k]
		}
		L.m["cryptoutil.verify_cpu_ops"] = (verifies - hits) / ops
		L.m["cryptoutil.verify_cache_hit_ratio"] = hits / max(verifies, 1)
		L.m["seclog.tables"] = float64(tables) / ops
		L.m["dlog.steps"] = float64(steps) / ops
		// simnet's own time: Net.Run minus the cryptoutil time recorded
		// during it and minus the dlog time the replayed inputs took.
		L.m["simnet.run_s"] = L.total(spanRun)
		L.m["simnet.self_s"] = L.total(spanRun) - runCrypto.Seconds()/ops - L.total(spanStep)
		rep.layer = L.m
		rep.exact["dlog.steps"] = float64(steps) / ops
		rep.note("dlog.step_s times the logged input events replayed through a fresh machine after each iteration; simnet.self_s subtracts it")
	}
	return rep, nil
}

// compareSeries fails the run if got differs from want in any exact count.
func compareSeries(rep *report, what string, want, got map[string]float64) {
	for k, w := range want {
		if g := got[k]; g != w {
			rep.fail("%s: exact count %s = %v, want %v", what, k, g, w)
		}
	}
}
