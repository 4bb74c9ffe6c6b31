package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/apps/bgp"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/livetcp"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// liveSyncEvery is how many harness ticks pass between BGP reconciliations
// of every speaker (livetcp's own Quagga app uses the same cadence).
const liveSyncEvery = 4

// liveDeployment is the 10-AS Quagga topology (bgp.DefaultTopology) running
// over loopback TCP through livetcp's harness. Its logs stay in memory:
// the segment store's write-ahead flush per packet made lag figures follow
// the host disk rather than the program.
type liveDeployment struct {
	h        *livetcp.Harness
	speakers map[types.NodeID]*bgp.Speaker
	nodes    []types.NodeID
}

// newLiveQuagga deploys the topology. Every speaker is only touched under
// its node's harness lock (Harness.With), from the tick loop or from the
// benchmark's injector.
func newLiveQuagga(seed int64) (*liveDeployment, error) {
	rels := bgp.Relations(bgp.DefaultTopology())
	d := &liveDeployment{speakers: map[types.NodeID]*bgp.Speaker{}}
	for id := range rels {
		d.nodes = append(d.nodes, id)
		d.speakers[id] = bgp.NewSpeaker(id, rels[id])
	}
	sort.Slice(d.nodes, func(i, j int) bool { return d.nodes[i] < d.nodes[j] })
	var ticks atomic.Int64
	app := livetcp.App{
		Name:    "quagga10",
		Nodes:   d.nodes,
		Factory: bgp.Factory(),
		Step: func(h *livetcp.Harness) {
			if ticks.Add(1)%liveSyncEvery != 0 {
				return
			}
			for _, id := range d.nodes {
				sp := d.speakers[id]
				_ = h.With(id, func(n *core.Node) { sp.Sync(n) }) // every id is local
			}
		},
		ConfigureQuerier: func(q *core.Querier) { q.Auditor.Builder.MaybeValidator = bgp.ValidateExport },
	}
	h, err := livetcp.New(app, livetcp.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	d.h = h
	return d, nil
}

// liveKeySeeds are the pooled-key seeds livetcp derives for the deployment.
func liveKeySeeds(seed int64) []int64 {
	out := make([]int64, len(bgp.Relations(bgp.DefaultTopology())))
	for i := range out {
		out[i] = seed*1000 + int64(100+i)
	}
	return out
}

// inject hands one trace update to its stub's speaker under the node lock.
// With a lane, the wait for the lock and the work inside are timed apart.
func (d *liveDeployment) inject(u workload.BGPUpdate, lane *Lane) error {
	stub := stubs[u.Origin]
	sp := d.speakers[stub]
	var entered time.Time
	waitStart := time.Now()
	err := d.h.With(stub, func(n *core.Node) {
		entered = time.Now()
		if lane != nil {
			lane.record(spanLockWait, waitStart, entered)
		}
		if u.Withdraw {
			sp.Withdraw(n, u.Prefix)
		} else {
			sp.Announce(n, u.Prefix)
		}
		if lane != nil {
			lane.record(spanInsert, entered, time.Now())
		}
	})
	return err
}

// ingest feeds updates at rate per second (open loop, each due at a fixed
// offset from the start) while the harness tick loop keeps the deployment
// running, and returns each update's lag: completion minus due time.
func (d *liveDeployment) ingest(updates []workload.BGPUpdate, rate float64, lane *Lane, onErr func(error)) latencies {
	interval := time.Duration(float64(time.Second) / rate)
	total := time.Duration(len(updates)) * interval
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.h.RunFor(total + 100*time.Millisecond)
	}()
	lags := make(latencies, 0, len(updates))
	start := time.Now()
	for i, u := range updates {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lane.SetOp(uint64(i + 1))
		if err := d.inject(u, lane); err != nil {
			onErr(err)
		}
		lags = append(lags, time.Since(due))
	}
	<-done
	return lags
}

// nodeStats sums the nodes' crypto counters and log sizes, and returns the
// first node fault.
func (d *liveDeployment) nodeStats() (cs nodeCounters, err error) {
	for _, id := range d.nodes {
		werr := d.h.With(id, func(n *core.Node) {
			cs.crypto = cs.crypto.Add(n.Stats.Snapshot())
			cs.entries += n.Log.Len()
			cs.logBytes += n.Log.GrossBytes()
			if nerr := n.Err(); nerr != nil && err == nil {
				err = fmt.Errorf("node %s faulted: %w", id, nerr)
			}
		})
		if werr != nil && err == nil {
			err = werr
		}
	}
	return cs, err
}

func (d *liveDeployment) close() { d.h.Close() }

// transportDelta subtracts two transport stat snapshots.
func transportDelta(a, b transport.Stats) transport.Stats {
	return transport.Stats{
		FramesSent:     a.FramesSent - b.FramesSent,
		QueueFullDrops: a.QueueFullDrops - b.QueueFullDrops,
		DownDrops:      a.DownDrops - b.DownDrops,
		ClosedDrops:    a.ClosedDrops - b.ClosedDrops,
		WriteErrors:    a.WriteErrors - b.WriteErrors,
		FramesReceived: a.FramesReceived - b.FramesReceived,
		RPCServed:      a.RPCServed - b.RPCServed,
	}
}

// transportLayer sets the transport counters from a stats delta.
func transportLayer(L *layerSet, ts transport.Stats) {
	L.perOp("transport.frames_sent", float64(ts.FramesSent))
	L.perOp("transport.frames_received", float64(ts.FramesReceived))
	L.m["transport.dropped"] = float64(ts.Dropped())
	L.perOp("transport.rpc_served", float64(ts.RPCServed))
}

// nodeCounters are the deployment-wide counts read from the nodes.
type nodeCounters struct {
	crypto   cryptoutil.StatsSnapshot
	entries  uint64
	logBytes int64
}
