package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/apps/bgp"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/provgraph"
	"repro/internal/queryfront"
	"repro/internal/transport"
)

// live-query-warm sizes.
const (
	warmClients = 2 // closed-loop client connections = frontend sessions
	// warmExplains is the number of distinct explain macroqueries in the
	// mix. The tail percentile falls among the explains, so it needs
	// enough targets not to hinge on which few a seed draws.
	warmExplains   = 24
	warmMixLen     = 4096 // request sequence length (cycled)
	warmExplainHop = 12   // explain scope, as the Fig. 8 Quagga queries use
)

// warmFront is a recorded Quagga deployment whose nodes answer over
// loopback TCP, with a query frontend whose persistent audit cache already
// holds every segment the request mix audits.
type warmFront struct {
	d        *simDeployment
	cluster  *transport.Cluster
	cache    *core.AuditCache
	base     core.Config // audit configuration, sharing the cache
	srv      *queryfront.Server
	explains []queryfront.ExplainRequest
	vertices []int // each explain's answer size in the fill pass
}

func (w *warmFront) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	w.cluster.Close()
	_ = w.cache.Close() // temporary data under the work directory
	w.d.close()
}

// setupWarmFront records the seeded trace on the simulator (so every set-up
// and every run of a seed serves the same logs), serves every node over
// loopback TCP, starts the frontend, picks the explain targets and fills the
// cache in one full pass through the frontend.
func setupWarmFront(cfg runConfig, i int, nodeSuite cryptoutil.Suite) (*warmFront, error) {
	cryptoutil.DefaultVerifyCache.Reset()
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("front%d", i))
	d, err := recordQuagga(cfg.seed, bgpTrace(cfg.seed, replayUpdates), replayDuration,
		filepath.Join(dir, "store"), nodeSuite, nil)
	if err != nil {
		return nil, err
	}
	w := &warmFront{d: d, cluster: transport.NewCluster()}
	// The frontend merges the deployment's missing-ack notes over the wire.
	w.cluster.SetMaintainer(d.net.Maintainer)
	if w.cache, err = core.OpenAuditCache(filepath.Join(dir, "auditcache"), d.net.Cfg.Core.Suite); err != nil {
		w.cluster.Close()
		d.close()
		return nil, err
	}
	for _, id := range d.net.Nodes() {
		if _, err := w.cluster.Serve(d.net.Node(id), "127.0.0.1:0"); err != nil {
			w.close()
			return nil, err
		}
	}
	w.base = d.net.Cfg.Core
	w.base.AuditCache = w.cache
	w.srv, err = queryfront.Serve(queryfront.Config{
		Cluster: w.cluster, Base: w.base, Dir: d.net.Dir, Factory: bgp.Factory(),
		ConfigureQuerier: func(q *core.Querier) { q.Auditor.Builder.MaybeValidator = bgp.ValidateExport },
		Sessions:         warmClients, QueueLen: 4 * warmClients, QueryTimeout: time.Minute,
	}, "127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	if err := w.pickExplains(cfg.seed); err != nil {
		w.close()
		return nil, err
	}
	if err := w.fill(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// pickExplains chooses the explain macroqueries, Fig. 8's
// Quagga-Disappear shape: why did a route at a stub network disappear?
func (w *warmFront) pickExplains(seed int64) error {
	var cands []queryfront.ExplainRequest
	for _, stub := range stubs {
		q := w.d.bgp.NewQuerier()
		if err := q.EnsureAudited(stub, 0); err != nil {
			return fmt.Errorf("auditing %s for explain targets: %w", stub, err)
		}
		q.Auditor.Finalize()
		for _, v := range q.Auditor.Graph().ByHost(stub) {
			if v.Type == provgraph.VBelieveDisappear && v.Tuple.Rel == "advRoute" {
				cands = append(cands, queryfront.ExplainRequest{Node: stub, Tuple: v.Tuple,
					Mode: core.ModeDisappear, Scope: warmExplainHop})
			}
		}
	}
	if len(cands) == 0 {
		return fmt.Errorf("no route disappeared at any stub")
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_0003))
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	w.explains = cands[:min(warmExplains, len(cands))]
	return nil
}

// fill audits every node and runs every explain once through the frontend.
func (w *warmFront) fill() error {
	cl, err := queryfront.Dial(w.srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, id := range w.d.net.Nodes() {
		res, err := cl.Audit(id)
		if err != nil {
			return fmt.Errorf("fill audit of %s: %w", id, err)
		}
		if err := checkAudit(res); err != nil {
			return fmt.Errorf("fill audit of %s: %w", id, err)
		}
	}
	for _, req := range w.explains {
		res, err := cl.Explain(req)
		if err != nil {
			return fmt.Errorf("fill explain: %w", err)
		}
		if len(res.Faulty) != 0 || len(res.Unreachable) != 0 || res.Vertices == 0 {
			return fmt.Errorf("fill explain of %v: %d vertices, faulty %v, unreachable %v",
				req.Tuple, res.Vertices, res.Faulty, res.Unreachable)
		}
		w.vertices = append(w.vertices, res.Vertices)
	}
	return w.cache.Sync()
}

// checkAudit fails any verdict but a clean one: the deployment is honest.
func checkAudit(res *queryfront.AuditResult) error {
	if len(res.Failures) != 0 || len(res.RedHosts) != 0 || len(res.Unreachable) != 0 {
		return fmt.Errorf("honest deployment audited with failures %v, red hosts %v, unreachable %v",
			res.Failures, res.RedHosts, res.Unreachable)
	}
	return nil
}

// runLiveQueryWarm is the cache-hit read path over the wire.
func runLiveQueryWarm(cfg runConfig) (*report, error) {
	rep := &report{}
	var nodeSuite cryptoutil.Suite
	if cfg.tracer != nil {
		nodeSuite = timedSuite{cryptoutil.Ed25519SHA256, cfg.tracer.Background()}
	}
	var w *warmFront
	var ref map[string]float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = setupWarmFront(cfg, i, nodeSuite); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.setups = append(rep.setups, time.Since(start))
		series := w.d.exactSeries()
		for j, n := range w.vertices {
			series[fmt.Sprintf("explain%d.vertices", j)] = float64(n)
		}
		if ref == nil {
			ref = series
		} else {
			compareSeries(rep, "set-up", ref, series)
		}
	}
	defer w.close()
	rep.exact = ref
	nodes := w.d.net.Nodes()
	mix := queryMix(cfg.seed, nodes, len(w.explains), warmMixLen)

	clients := make([]*queryfront.Client, warmClients)
	for i := range clients {
		cl, err := queryfront.Dial(w.srv.Addr())
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		clients[i] = cl
	}
	lanes := make([]*Lane, warmClients)
	if cfg.tracer != nil {
		for i := range lanes {
			lanes[i] = cfg.tracer.Lane()
		}
		cfg.tracer.Reset()
	}
	// With tracing, half the run goes over the wire and half runs the same
	// requests in process (phase B), where each core call is timed.
	wire := cfg.seconds
	if cfg.tracer != nil {
		wire = cfg.seconds / 2
	}

	front0, hits0, miss0 := w.srv.Stats(), w.cache.Hits(), w.cache.Misses()
	var serverNs atomic.Int64
	p0 := sampleProc()
	lat, elapsed := closedLoop(warmClients, wire, func(c, i int) error {
		op := mix[i%len(mix)]
		lane := lanes[c]
		lane.SetOp(uint64(i + 1))
		var err error
		lane.Do(spanFrontRTT, func() {
			if op.kind == queryAudit {
				var res *queryfront.AuditResult
				if res, err = clients[c].Audit(op.target); err == nil {
					serverNs.Add(int64(res.Elapsed))
					err = checkAudit(res)
				}
				return
			}
			var res *queryfront.ExplainResult
			if res, err = clients[c].Explain(w.explains[op.expl]); err == nil {
				serverNs.Add(int64(res.Elapsed))
				if want := w.vertices[op.expl]; res.Vertices != want || len(res.Faulty) != 0 {
					err = fmt.Errorf("explain %d: %d vertices (want %d), faulty %v", op.expl, res.Vertices, want, res.Faulty)
				}
			}
		})
		return err
	}, func(i int, err error) { rep.fail("query %d: %v", i, err) })
	p1 := sampleProc()
	rep.peakRSS = peakRSSMB()
	front1, hits1, miss1 := w.srv.Stats(), w.cache.Hits(), w.cache.Misses()
	spansA := map[string]agg{}
	if cfg.tracer != nil {
		spansA = cfg.tracer.Totals()
	}

	rep.attempted = int64(len(lat))
	rep.lat = lat
	rep.throughput = float64(len(lat)) / elapsed.Seconds()
	shed, expired := front1.Shed-front0.Shed, front1.Expired-front0.Expired
	misses := miss1 - miss0
	for _, c := range []struct {
		what string
		n    uint64
	}{{"shed", shed}, {"expired", expired}, {"failed", front1.Failed - front0.Failed}, {"audit-cache misses", misses}} {
		if c.n != 0 {
			rep.fail("frontend reported %d %s queries in the timed phase", c.n, c.what)
			rep.failed += int64(c.n) - 1
		}
	}
	rep.note("an op is one query over loopback TCP (single-node audit, or 1 in %d an explain of %d); %d closed-loop clients, %d sessions",
		explainEvery, len(w.explains), warmClients, warmClients)
	rep.note("audit cache: %d hits, %d misses in the timed phase", hits1-hits0, misses)

	if cfg.tracer != nil {
		opsA := float64(len(lat))
		L, err := runInProcessPhase(cfg, w, mix, lanes, rep)
		if err != nil {
			return nil, err
		}
		L.m["queryfront.rtt_s"] = spansA[spanFrontRTT].Total.Seconds() / opsA
		L.m["queryfront.server_s"] = time.Duration(serverNs.Load()).Seconds() / opsA
		L.m["queryfront.wire_admission_s"] = L.m["queryfront.rtt_s"] - L.m["queryfront.server_s"]
		L.m["queryfront.shed"] = float64(shed)
		L.m["queryfront.expired"] = float64(expired)
		L.m["runtime.alloc_bytes_per_op"] = float64(p1.allocBytes-p0.allocBytes) / opsA
		L.m["process.cpu_s_per_op"] = (p1.cpu - p0.cpu).Seconds() / opsA
		if cpu := p1.totalCPU - p0.totalCPU; cpu > 0 {
			L.m["runtime.gc_cpu_fraction"] = (p1.gcCPU - p0.gcCPU) / cpu
		}
		rep.layer = L.m
		rep.note("traced: queryfront.* and runtime/process figures are per wire query; core, transport, dlog and cryptoutil figures are per in-process query (phase B)")
	}
	return rep, nil
}

// runInProcessPhase sends the request mix through in-process queriers that
// share the frontend's cache and fetch over the same loopback TCP, calling
// LatestAuth, Retrieve, Prepare, Commit and Finalize explicitly (the
// sequence a frontend session runs) so each is timed. It returns the
// per-layer figures of this phase.
func runInProcessPhase(cfg runConfig, w *warmFront, mix []queryOp, lanes []*Lane, rep *report) (*layerSet, error) {
	nodes := w.d.net.Nodes()
	envs := make([]*auditEnv, len(lanes))
	for i, lane := range lanes {
		f := w.cluster.NewFetcher("auditor")
		defer f.Close()
		env, err := newAuditEnv(w.base, w.d.net.Dir, nodes, w.d.net.Maintainer, f, lane, spanTransRetr)
		if err != nil {
			return nil, err
		}
		envs[i] = env
	}
	nodes0 := w.d.net.CryptoStats()
	trans0, miss0, hits0 := w.cluster.Stats(), w.cache.Misses(), w.cache.Hits()
	book := newOutcomeBook()
	before := cfg.tracer.Totals()
	p0 := sampleProc()
	lat, _ := closedLoop(len(envs), cfg.seconds-cfg.seconds/2, func(c, i int) error {
		env := envs[c]
		op := mix[i%len(mix)]
		env.lane.SetOp(uint64(1<<32 + i))
		var err error
		env.lane.Do(spanOp, func() {
			if op.kind == queryAudit {
				var o auditOutcome
				if o, err = env.audit(env.auditor(), op.target); err == nil {
					err = book.record(op.target, o)
				}
				return
			}
			err = env.explain(w.explains[op.expl], w.vertices[op.expl])
		})
		return err
	}, func(i int, err error) { rep.fail("in-process query %d: %v", i, err) })
	p1 := sampleProc()
	if m := w.cache.Misses() - miss0; m != 0 {
		rep.fail("%d audit-cache misses in the in-process phase", m)
	}
	totals := subTotals(cfg.tracer.Totals(), before)
	L := newLayerSet(totals, float64(len(lat)), p0, p1)
	cryptoLayer(L, subStats(w.d.net.CryptoStats().Add(book.crypto), nodes0))
	transportLayer(L, transportDelta(w.cluster.Stats(), trans0))
	L.perOp("dlog.steps", float64(totals[spanStep].Count))
	L.m["seclog.tables"] = float64(w.d.storeTables())
	if h, m := w.cache.Hits()-hits0, w.cache.Misses()-miss0; h+m > 0 {
		L.m["core.audit_cache_hit_ratio"] = float64(h) / float64(h+m)
	}
	book.exact(rep.exact)
	return L, nil
}

// explain runs one explain macroquery in process: the root's audit
// explicitly, then Querier.Explain (which audits further hosts on demand),
// then Finalize. The answer must match the frontend's.
func (e *auditEnv) explain(req queryfront.ExplainRequest, wantVertices int) error {
	a := e.auditor()
	q := core.NewQuerier(a, e.fetch)
	q.Parallelism = 1
	if _, err := e.prepareCommit(a, req.Node); err != nil {
		return err
	}
	var expl *core.Explanation
	var err error
	e.lane.Do(spanExplain, func() { expl, err = q.Explain(req.Node, req.Tuple, req.Opts()) })
	if err != nil {
		return err
	}
	e.lane.Do(spanFinalize, a.Finalize)
	if n, faulty := expl.Size(), expl.FaultyNodes(); n != wantVertices || len(faulty) != 0 {
		return fmt.Errorf("explain of %v: %d vertices (frontend gave %d), faulty %v", req.Tuple, n, wantVertices, faulty)
	}
	return nil
}

// subTotals returns a-b per span name.
func subTotals(a, b map[string]agg) map[string]agg {
	out := map[string]agg{}
	for k, x := range a {
		y := b[k]
		out[k] = agg{Count: x.Count - y.Count, Total: x.Total - y.Total, Self: x.Self - y.Self, Bytes: x.Bytes - y.Bytes}
	}
	return out
}
