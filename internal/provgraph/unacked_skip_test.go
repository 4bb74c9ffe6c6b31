package provgraph_test

import (
	"testing"

	"repro/internal/apps/bgp"
	"repro/internal/core"
	"repro/internal/provgraph"
	"repro/internal/seclog"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// quaggaHistory records a seeded BGP trace on the 10-AS Quagga topology and
// returns every node's logged history as GCA events, node by node in the
// order an auditor commits them, plus each node's last local time. Every
// delayAckEvery-th received acknowledgment is moved later in its node's
// history, past 2·Tprop, so the builder has to flag the send as unacked
// mid-history, before the late ack arrives. The trace is sparse (24
// updates over 60 s, where eval's Quagga run makes about 1,000 a minute) so
// that nodes sit idle past 2·Tprop: only then can a scan leave a node with
// no unacked sends, the case where a stale bound would skip a later scan.
func quaggaHistory(t *testing.T, delayAckEvery int) ([]types.Event, map[types.NodeID]types.Time) {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Seed = 3
	cfg.Core.CheckpointEvery = 0
	net := simnet.New(cfg)
	dur := 60 * types.Second
	d, err := bgp.Deploy(net, bgp.DefaultTopology(), types.Second, dur)
	if err != nil {
		t.Fatal(err)
	}
	stubs := []types.NodeID{"as51", "as52", "as53", "as61", "as62", "as63"}
	trace := workload.BGPTrace(3, 24, len(stubs), 200)
	for i, u := range trace {
		u := u
		stub := stubs[u.Origin]
		net.AtNode(stub, types.Second+types.Time(i)*(dur-5*types.Second)/types.Time(len(trace)), func() {
			if u.Withdraw {
				d.Speakers[stub].Withdraw(net.Node(stub), u.Prefix)
			} else {
				d.Speakers[stub].Announce(net.Node(stub), u.Prefix)
			}
		})
	}
	net.Run(dur)

	late := 3 * core.DefaultConfig().Tprop
	var events []types.Event
	end := map[types.NodeID]types.Time{}
	acks := 0
	for _, id := range net.Nodes() {
		var delayed []types.Event // acks held back, each due at its Time
		emit := func(ev types.Event) {
			for len(delayed) > 0 && delayed[0].Time <= ev.Time {
				d := delayed[0]
				d.Time = ev.Time
				events = append(events, d)
				delayed = delayed[1:]
			}
			events = append(events, ev)
		}
		log := net.Node(id).Log
		for seq := log.FirstSeq(); seq <= log.Len(); seq++ {
			e, err := log.Entry(seq)
			if err != nil {
				t.Fatal(err)
			}
			end[id] = e.T
			switch e.Type {
			case seclog.EIns:
				emit(types.Event{Kind: types.EvIns, Node: id, Time: e.T,
					Tuple: e.Tuple, MaybeRule: e.MaybeRule, MaybeBody: e.MaybeBody, Replaces: e.Replaces})
			case seclog.EDel:
				emit(types.Event{Kind: types.EvDel, Node: id, Time: e.T,
					Tuple: e.Tuple, MaybeRule: e.MaybeRule, MaybeBody: e.MaybeBody})
			case seclog.ESnd:
				for j := range e.Msgs {
					emit(types.Event{Kind: types.EvSnd, Node: id, Time: e.T, Msg: &e.Msgs[j]})
				}
			case seclog.ERcv:
				for j := range e.Msgs {
					ackID := e.Msgs[j].ID()
					emit(types.Event{Kind: types.EvRcv, Node: id, Time: e.T, Msg: &e.Msgs[j], SameBatch: j > 0})
					emit(types.Event{Kind: types.EvSnd, Node: id, Time: e.T, AckID: &ackID, AckTime: e.T})
				}
			case seclog.EAck:
				for j := range e.AckIDs {
					ev := types.Event{Kind: types.EvRcv, Node: id, Time: e.T, AckID: &e.AckIDs[j], AckTime: e.PeerTime}
					if acks++; acks%delayAckEvery == 0 {
						ev.Time += late
						delayed = append(delayed, ev)
						continue
					}
					emit(ev)
				}
			}
		}
		for _, d := range delayed { // due after the log's end: deliver last
			d.Time = end[id]
			events = append(events, d)
		}
	}
	return events, end
}

// TestUnackedBoundSkipKeepsGraph runs the builder over a recorded Quagga
// history twice: once as it runs in audits, and once with the unacked
// lower bound forgotten before every event, so every event scans the
// unacked sends in full. The two graphs must agree in every vertex, color,
// interval and edge.
func TestUnackedBoundSkipKeepsGraph(t *testing.T) {
	events, end := quaggaHistory(t, 5)
	run := func(forget bool) *provgraph.Graph {
		b := provgraph.NewBuilder(bgp.Factory(), core.DefaultConfig().Tprop)
		b.MaybeValidator = bgp.ValidateExport
		// Excuse some missing acks, as maintainer notes do, so the scan's
		// excuse branch runs as well.
		b.MissedAckKnown = func(_ types.NodeID, id types.MessageID) bool { return id.Seq%3 == 0 }
		for _, ev := range events {
			if forget {
				provgraph.ForgetUnackedBounds(b)
			}
			b.HandleEvent(ev)
		}
		b.Finalize(end)
		if err := b.G.Validate(); err != nil {
			t.Fatalf("graph invalid: %v", err)
		}
		return b.G
	}
	skip, full := run(false), run(true)

	reds := 0
	sv, fv := skip.Vertices(), full.Vertices()
	if len(sv) != len(fv) || skip.EdgeCount() != full.EdgeCount() {
		t.Fatalf("skip: %d vertices, %d edges; full scan: %d vertices, %d edges",
			len(sv), skip.EdgeCount(), len(fv), full.EdgeCount())
	}
	for i, v := range sv {
		w := fv[i]
		if v.ID() != w.ID() || v.Color != w.Color || v.T1 != w.T1 || v.T2 != w.T2 {
			t.Fatalf("vertex %d: skip has %s %s [%d,%d], full scan has %s %s [%d,%d]",
				i, v.ID(), v.Color, v.T1, v.T2, w.ID(), w.Color, w.T1, w.T2)
		}
		if len(v.Out()) != len(w.Out()) {
			t.Fatalf("%s: %d out-edges with skip, %d with full scan", v.ID(), len(v.Out()), len(w.Out()))
		}
		for j, x := range v.Out() {
			if x.ID() != w.Out()[j].ID() {
				t.Fatalf("%s: out-edge %d is %s with skip, %s with full scan", v.ID(), j, x.ID(), w.Out()[j].ID())
			}
		}
		if v.Type == provgraph.VSend && v.Color == provgraph.Red {
			reds++
		}
	}
	if reds == 0 {
		t.Fatal("no send turned red: the late acks never reached the unacked scan")
	}
	t.Logf("%d events, %d vertices, %d edges, %d red sends", len(events), len(sv), skip.EdgeCount(), reds)
}
