package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/apps/bgp"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/types"
)

// auditEnv is everything one audit worker needs to build a fresh auditor
// per op. With tracing on, its directory keys, suite, machine factory and
// fetcher are wrapped to record on the worker's own lane.
type auditEnv struct {
	cfg     core.Config
	dir     *core.Directory
	factory types.MachineFactory
	maint   *core.Maintainer
	fetch   core.Fetcher
	lane    *Lane
}

// newAuditEnv builds a worker's environment; fetchSpan names the span its
// Retrieve calls record (seclog.retrieve in process, transport.retrieve
// over the wire).
func newAuditEnv(cfg core.Config, dir *core.Directory, nodes []types.NodeID, maint *core.Maintainer,
	fetch core.Fetcher, lane *Lane, fetchSpan string) (*auditEnv, error) {
	env := &auditEnv{cfg: cfg, dir: dir, factory: bgp.Factory(), maint: maint, fetch: fetch}
	if lane == nil {
		return env, nil
	}
	d, err := timedDirectory(dir, nodes, lane)
	if err != nil {
		return nil, err
	}
	env.lane = lane
	env.dir = d
	env.cfg.Suite = timedSuite{cryptoutil.Ed25519SHA256, lane}
	env.factory = timedFactory(env.factory, lane)
	env.fetch = timedFetcher{fetch, lane, fetchSpan}
	return env, nil
}

// auditor returns a fresh auditor, configured as BGP's querier is.
func (e *auditEnv) auditor() *core.Auditor {
	a := core.NewAuditor(e.cfg, e.dir, e.factory, e.maint)
	a.Builder.MaybeValidator = bgp.ValidateExport
	return a
}

// auditOutcome is what one single-node audit produced. Its fields are
// exact: auditing an unchanged log again must reproduce them.
type auditOutcome struct {
	entries  int
	vertices int
	stats    cryptoutil.StatsSnapshot
}

// audit runs one single-node audit as a query-frontend session does:
// LatestAuth, Retrieve, Prepare, Commit, Finalize. An honest deployment
// must give no failure of any kind.
func (e *auditEnv) audit(a *core.Auditor, target types.NodeID) (auditOutcome, error) {
	entries, err := e.prepareCommit(a, target)
	if err != nil {
		return auditOutcome{}, err
	}
	e.lane.Do(spanFinalize, a.Finalize)
	if f := a.Failures(); len(f) != 0 {
		return auditOutcome{}, fmt.Errorf("honest %s audited with %d failures, first: %v", target, len(f), f[0])
	}
	return auditOutcome{entries: entries, vertices: a.Graph().Len(), stats: a.Stats.Snapshot()}, nil
}

// prepareCommit is the audit up to and including Commit; it returns the
// retrieved segment's length.
func (e *auditEnv) prepareCommit(a *core.Auditor, target types.NodeID) (int, error) {
	auth, err := e.fetch.LatestAuth(target)
	if err != nil {
		return 0, fmt.Errorf("latest auth of %s: %w", target, err)
	}
	resp, err := e.fetch.Retrieve(target, core.RetrieveRequest{Auth: auth})
	if err != nil {
		return 0, fmt.Errorf("retrieve from %s: %w", target, err)
	}
	var p *core.PreparedAudit
	e.lane.Do(spanPrepare, func() { p = a.Prepare(target, resp, auth) })
	if err := p.Err(); err != nil {
		return 0, fmt.Errorf("prepare %s: %w", target, err)
	}
	e.lane.Do(spanCommit, func() { err = a.Commit(p) })
	if err != nil {
		return 0, fmt.Errorf("commit %s: %w", target, err)
	}
	return len(resp.Segment.Entries), nil
}

// outcomeBook checks that every audit of a target reproduces the first
// one's exact outcome, and sums auditor-side crypto counts.
type outcomeBook struct {
	mu     sync.Mutex
	first  map[types.NodeID]auditOutcome
	crypto cryptoutil.StatsSnapshot
}

func newOutcomeBook() *outcomeBook { return &outcomeBook{first: map[types.NodeID]auditOutcome{}} }

// record returns an error if o differs from target's first outcome.
// Verification-cache hits are excluded from the comparison: they depend on
// what else the process verified before.
func (b *outcomeBook) record(target types.NodeID, o auditOutcome) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.crypto = b.crypto.Add(o.stats)
	cmp := o
	cmp.stats.VerifyCacheHits = 0
	first, ok := b.first[target]
	if !ok {
		b.first[target] = cmp
		return nil
	}
	if first != cmp {
		return fmt.Errorf("audit of %s gave %+v, an earlier audit gave %+v", target, cmp, first)
	}
	return nil
}

// exact flattens the per-target outcomes for cross-run comparison.
func (b *outcomeBook) exact(into map[string]float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, o := range b.first {
		p := "audit." + string(id) + "."
		into[p+"entries"] = float64(o.entries)
		into[p+"vertices"] = float64(o.vertices)
		into[p+"verifies"] = float64(o.stats.Verifies)
		into[p+"hashed_bytes"] = float64(o.stats.HashedBytes)
	}
}

// closedLoop runs workers goroutines that each take the next op index and
// run it, until d has passed; an op started before the deadline finishes.
// It returns every op's latency and the elapsed time; onFail, called under
// the loop's lock, hears of each failed op.
func closedLoop(workers int, d time.Duration, op func(worker, i int) error, onFail func(i int, err error)) (latencies, time.Duration) {
	var (
		mu   sync.Mutex
		next int
		lat  latencies
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				t := time.Now()
				err := op(w, i)
				el := time.Since(t)
				mu.Lock()
				lat = append(lat, el)
				if err != nil {
					onFail(i, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return lat, time.Since(start)
}
