package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
)

// BenchmarkAuditorCommit measures the serial commit phase of a single-node
// audit in isolation: each iteration commits every node's prepared audit of
// a recorded Quagga deployment into its own fresh Auditor, building the
// node's provenance graph. Retrieval, verification and replay happen once,
// outside the timer.
func BenchmarkAuditorCommit(b *testing.B) {
	res, err := eval.Run(eval.Quagga, eval.Options{Scale: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	net := res.Net
	var preps []*core.PreparedAudit
	for _, id := range net.Nodes() {
		auth, err := net.LatestAuth(id)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := net.Retrieve(id, core.RetrieveRequest{Auth: auth})
		if err != nil {
			b.Fatal(err)
		}
		p := res.BGP.NewQuerier().Auditor.Prepare(id, resp, auth)
		if err := p.Err(); err != nil {
			b.Fatalf("prepare %s: %v", id, err)
		}
		preps = append(preps, p)
	}
	b.ReportAllocs()
	vertices := 0
	for b.Loop() {
		vertices = 0
		for _, p := range preps {
			a := res.BGP.NewQuerier().Auditor
			if err := a.Commit(p); err != nil {
				b.Fatalf("commit %s: %v", p.Node, err)
			}
			vertices += a.Graph().Len()
		}
	}
	b.ReportMetric(float64(vertices)/float64(len(preps)), "vertices/audit")
}
