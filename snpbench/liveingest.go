package main

import (
	"fmt"
	"time"
)

// live-ingest sizes.
const (
	ingestRate   = 100.0 // offered updates per second, below saturation
	ingestWarmup = 200   // updates ingested during set-up
)

// runLiveIngest is the live write path: one generator injects seeded trace
// updates at the stubs, open loop at a fixed offered rate, while the
// harness tick loop runs BGP reconciliation and the commitment protocol.
// An op is one update; its latency is the lag from when it was due until
// its handoff completed. After the run settles, every node is audited over
// the wire.
func runLiveIngest(cfg runConfig) (*report, error) {
	rep := &report{}
	var lane *Lane
	if cfg.tracer != nil {
		if err := poolTimedKeys(cfg.tracer.Background(), liveKeySeeds(cfg.seed)); err != nil {
			return nil, err
		}
		lane = cfg.tracer.Lane()
	}
	n := int(ingestRate * cfg.seconds.Seconds())
	trace := bgpTrace(cfg.seed, ingestWarmup+n)
	// The workload reports no setup_s, so it sets up once.
	start := time.Now()
	d, err := newLiveQuagga(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()
	var ingestErr error
	d.ingest(trace[:ingestWarmup], ingestRate, nil, func(err error) { ingestErr = err })
	if ingestErr != nil {
		return nil, fmt.Errorf("set-up ingest: %w", ingestErr)
	}
	rep.setups = append(rep.setups, time.Since(start))
	if cfg.tracer != nil {
		cfg.tracer.Reset()
	}

	nodes0, err := d.nodeStats()
	if err != nil {
		return nil, err
	}
	trans0 := d.h.Cluster.Stats()
	p0 := sampleProc()
	start = time.Now()
	lags := d.ingest(trace[ingestWarmup:], ingestRate, lane, func(err error) { rep.fail("handoff: %v", err) })
	elapsed := time.Since(start)
	p1 := sampleProc()
	ts := transportDelta(d.h.Cluster.Stats(), trans0)
	nodes1, err := d.nodeStats()
	if err != nil {
		rep.fail("%v", err)
	}
	spans := map[string]agg{}
	if cfg.tracer != nil {
		spans = cfg.tracer.Totals()
	}
	if dropped := ts.Dropped(); dropped != 0 {
		rep.fail("transport dropped %d frames", dropped)
		rep.failed += int64(dropped) - 1
	}

	// Correctness: after the run settles no node faulted and a full audit
	// over the wire finds no evidence against any (honest) node.
	rep.peakRSS = peakRSSMB()
	auditStart := time.Now()
	d.h.Settle()
	env, err := newAuditEnv(d.h.Cfg, d.h.Dir, d.nodes, d.h.Maint, d.h.NewQuerier().Fetch, nil, "")
	if err != nil {
		return nil, err
	}
	for _, id := range d.nodes {
		if _, err := env.audit(env.auditor(), id); err != nil {
			rep.fail("final audit: %v", err)
		}
	}
	rep.note("settle and audits took %v", time.Since(auditStart).Round(time.Millisecond))
	if _, err := d.nodeStats(); err != nil {
		rep.fail("%v", err)
	}

	rep.attempted += int64(len(lags))
	rep.lat = lags
	rep.throughput = float64(ts.FramesReceived) / elapsed.Seconds()
	rep.note("an op is one update handed to its stub at %g/s (open loop); latency is its lag behind schedule", ingestRate)
	rep.note("generator ran %v for %v of schedule", elapsed.Round(time.Millisecond), time.Duration(float64(len(lags))/ingestRate*float64(time.Second)))

	if cfg.tracer != nil {
		L := newLayerSet(spans, float64(len(lags)), p0, p1)
		cryptoLayer(L, subStats(nodes1.crypto, nodes0.crypto))
		transportLayer(L, ts)
		L.perOp("seclog.entries_appended", float64(nodes1.entries-nodes0.entries))
		L.perOp("seclog.log_bytes", float64(nodes1.logBytes-nodes0.logBytes))
		rep.layer = L.m
		rep.note("traced: node-side hashing and dlog steps run inside livetcp's nodes, which take the default suite and concrete dlog machines; only their counts are reported")
	}
	return rep, nil
}
