package main

import (
	"math/rand"

	"repro/internal/types"
	"repro/internal/workload"
)

// stubs are the Quagga topology's stub networks, where trace updates
// originate (as in the paper's §7.1 setup and eval's Quagga run).
var stubs = []types.NodeID{"as51", "as52", "as53", "as61", "as62", "as63"}

// bgpPrefixPool bounds the prefixes a trace touches.
const bgpPrefixPool = 200

// bgpTrace is the seeded RouteViews-style update trace every workload
// injects (the seed is the benchmark's; the program sees only the updates).
func bgpTrace(seed int64, updates int) []workload.BGPUpdate {
	return workload.BGPTrace(seed, updates, len(stubs), bgpPrefixPool)
}

// queryKind is one live-query-warm request type.
type queryKind uint8

const (
	queryAudit queryKind = iota
	queryExplain
)

// queryOp is one request of the live-query-warm mix: a single-node audit,
// or an explain macroquery (index into the set-up's explain targets).
type queryOp struct {
	kind   queryKind
	target types.NodeID
	expl   int
}

// explainEvery is the share of explain macroqueries in the query mix:
// exactly one request in every block of explainEvery. With ten audited
// nodes, one in ten keeps the median inside one node's audit-cost band and
// the p95 inside the explains' band, away from the steps between them.
const explainEvery = 10

// queryMix returns the seeded request sequence for live-query-warm: audits
// round-robin over nodes, with one explain (over nExplain targets) at a
// seeded position in every block of explainEvery requests, so any stretch
// of the sequence has the same share of explains. Clients take requests
// from it in order, cycling.
func queryMix(seed int64, nodes []types.NodeID, nExplain, n int) []queryOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_0001))
	out := make([]queryOp, n)
	next, slot, explains := 0, 0, 0
	for i := range out {
		if i%explainEvery == 0 {
			slot = rng.Intn(explainEvery)
		}
		if nExplain > 0 && i%explainEvery == slot {
			out[i] = queryOp{kind: queryExplain, expl: explains % nExplain}
			explains++
			continue
		}
		out[i] = queryOp{kind: queryAudit, target: nodes[next%len(nodes)]}
		next++
	}
	return out
}

// auditOrder returns the audit-replay target sequence: every node once per
// round, each round in a seeded order.
func auditOrder(seed int64, nodes []types.NodeID, rounds int) []types.NodeID {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_0002))
	out := make([]types.NodeID, 0, rounds*len(nodes))
	for r := 0; r < rounds; r++ {
		perm := rng.Perm(len(nodes))
		for _, i := range perm {
			out = append(out, nodes[i])
		}
	}
	return out
}
