package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/types"
)

// audit-replay sizes: the recorded deployment every audit replays.
const (
	replayUpdates  = 240
	replayDuration = 40 * types.Second
	replayWorkers  = 2
)

// runAuditReplay is the replay-heavy read path: set-up records a
// store-backed Quagga deployment, then closed-loop workers each audit one
// node per op with a fresh auditor and no persistent audit cache, round
// robin over the ten networks.
func runAuditReplay(cfg runConfig) (*report, error) {
	rep := &report{}
	var nodeSuite cryptoutil.Suite
	if cfg.tracer != nil {
		// Nodes sign fresh authenticators while serving audits, on whichever
		// worker calls them: their keys record on the background lane.
		nodeSuite = timedSuite{cryptoutil.Ed25519SHA256, cfg.tracer.Background()}
	}
	var d *simDeployment
	var ref map[string]float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		cryptoutil.DefaultVerifyCache.Reset()
		var err error
		d, err = recordQuagga(cfg.seed, bgpTrace(cfg.seed, replayUpdates), replayDuration,
			filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", i)), nodeSuite, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up record: %w", err)
		}
		rep.setups = append(rep.setups, time.Since(start))
		series := d.exactSeries()
		if ref == nil {
			ref = series
		} else {
			compareSeries(rep, "set-up", ref, series)
		}
	}
	defer d.close()

	nodes := d.net.Nodes()
	acfg := d.net.Cfg.Core
	acfg.Suite = cryptoutil.Ed25519SHA256
	envs := make([]*auditEnv, replayWorkers)
	for w := range envs {
		var lane *Lane
		if cfg.tracer != nil {
			lane = cfg.tracer.Lane()
		}
		env, err := newAuditEnv(acfg, d.net.Dir, nodes, d.net.Maintainer, d.net, lane, spanSeclogRetr)
		if err != nil {
			return nil, err
		}
		envs[w] = env
	}
	order := auditOrder(cfg.seed, nodes, 200)
	book := newOutcomeBook()
	// Warm-up: one audit of every node, untimed, which also fixes each
	// node's exact outcome.
	for _, id := range nodes {
		o, err := envs[0].audit(envs[0].auditor(), id)
		if err == nil {
			err = book.record(id, o)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up audit: %w", err)
		}
	}
	if cfg.tracer != nil {
		cfg.tracer.Reset()
	}

	nodes0 := d.net.CryptoStats()
	crypto0 := book.crypto
	p0 := sampleProc()
	lat, elapsed := closedLoop(replayWorkers, cfg.seconds, func(w, i int) error {
		env := envs[w]
		env.lane.SetOp(uint64(i + 1))
		target := order[i%len(order)]
		var o auditOutcome
		var err error
		env.lane.Do(spanOp, func() { o, err = env.audit(env.auditor(), target) })
		if err != nil {
			return err
		}
		return book.record(target, o)
	}, func(i int, err error) { rep.fail("audit %d: %v", i, err) })
	p1 := sampleProc()

	rep.attempted = int64(len(lat))
	rep.lat = lat
	rep.throughput = float64(len(lat)) / elapsed.Seconds()
	rep.exact = ref
	book.exact(rep.exact)
	rep.note("an op is one single-node audit (LatestAuth, Retrieve, Prepare, Commit, Finalize) with a fresh auditor; %d closed-loop workers", replayWorkers)
	rep.note("deployment: %d updates over %v simulated, traffic factor %.4f", replayUpdates, replayDuration, ref["traffic_factor"])

	if cfg.tracer != nil {
		ops := float64(len(lat))
		L := newLayerSet(cfg.tracer.Totals(), ops, p0, p1)
		nodeCS := subStats(d.net.CryptoStats(), nodes0)
		cs := nodeCS.Add(subStats(book.crypto, crypto0))
		cryptoLayer(L, cs)
		L.perOp("dlog.steps", float64(L.t[spanStep].Count))
		L.m["seclog.tables"] = float64(d.storeTables())
		rep.layer = L.m
	}
	return rep, nil
}

// subStats returns a-b element-wise.
func subStats(a, b cryptoutil.StatsSnapshot) cryptoutil.StatsSnapshot {
	return cryptoutil.StatsSnapshot{
		Signs:           a.Signs - b.Signs,
		Verifies:        a.Verifies - b.Verifies,
		VerifyCacheHits: a.VerifyCacheHits - b.VerifyCacheHits,
		Hashes:          a.Hashes - b.Hashes,
		HashedBytes:     a.HashedBytes - b.HashedBytes,
	}
}

// cryptoLayer sets the cryptoutil counts from a crypto-stats delta.
func cryptoLayer(L *layerSet, cs cryptoutil.StatsSnapshot) {
	L.perOp("cryptoutil.signs", float64(cs.Signs))
	L.perOp("cryptoutil.verifies", float64(cs.Verifies))
	L.perOp("cryptoutil.verify_cpu_ops", float64(cs.Verifies-cs.VerifyCacheHits))
	L.perOp("cryptoutil.hashed_bytes", float64(cs.HashedBytes))
	if cs.Verifies > 0 {
		L.m["cryptoutil.verify_cache_hit_ratio"] = float64(cs.VerifyCacheHits) / float64(cs.Verifies)
	}
}
