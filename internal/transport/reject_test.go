package transport

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/dlog"
	"repro/internal/types"
)

// TestForgedEnvelopeCountedAsRejected sends envelopes with a forged
// signature to a served node over loopback TCP. The node must refuse them
// without logging anything or faulting; the cluster must count each one
// in Stats.Rejected, not as a drop, and keep the connection open.
func TestForgedEnvelopeCountedAsRejected(t *testing.T) {
	cluster := NewCluster()
	defer cluster.Close()
	cfg := core.DefaultConfig()
	cfg.CheckpointEvery = 0
	dir := core.NewDirectory()
	for i, id := range []types.NodeID{"a", "b"} {
		key, err := cryptoutil.PooledKey(cfg.Suite, int64(300+i))
		if err != nil {
			t.Fatal(err)
		}
		dir.Register(id, key.Public())
		if id != "b" {
			continue // "a" is the forger's claimed identity; it serves nothing
		}
		node, err := core.NewNode(id, cfg, key, dir, core.NewMaintainer(), WallClock{}, cluster,
			dlog.NewMachine(mincost.Program(), id))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cluster.Serve(node, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	var head uint64
	if err := cluster.With("b", func(n *core.Node) { head = n.Log.Len() }); err != nil {
		t.Fatal(err)
	}

	msg := types.Message{Src: "a", Dst: "b", Pol: types.PolAppear, Tuple: mincost.Link("b", "a", 1), Seq: 1}
	forged := &core.Packet{Kind: core.PktEnvelope, Envelope: &core.Envelope{
		Msgs: []types.Message{msg}, PrevHash: make([]byte, 32), T: WallClock{}.Now(),
		Sig: bytes.Repeat([]byte{0x5a}, 64), Seq: 1,
	}}
	frame, err := encodePacketFrame("a", forged, DefaultConfig().MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	cluster.mu.Lock()
	addr := cluster.addrs["b"]
	cluster.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for want := uint64(1); want <= 2; want++ {
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("write %d on the same connection: %v", want, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for cluster.Stats().Rejected < want {
			if time.Now().After(deadline) {
				t.Fatalf("Rejected = %d after forged frame %d, want %d", cluster.Stats().Rejected, want, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	s := cluster.Stats()
	if s.Rejected != 2 || s.Dropped() != 0 || s.DecodeErrors != 0 {
		t.Errorf("stats after two forged envelopes: %+v (want Rejected 2, no drops, no decode errors)", s)
	}
	f := cluster.NewFetcher("a")
	defer f.Close()
	h, err := f.Health("b", 0)
	if err != nil {
		t.Fatalf("health of b after forged envelopes: %v", err)
	}
	if h.Fault != "" || h.HeadSeq != head {
		t.Errorf("b after forged envelopes: fault %q, log head %d (was %d)", h.Fault, h.HeadSeq, head)
	}
}
