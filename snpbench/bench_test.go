package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/quantile"
	"repro/internal/types"
)

func TestInputsRepeatForSeed(t *testing.T) {
	nodes := []types.NodeID{"a", "b", "c", "d"}
	for _, seed := range []int64{1, 7, 42} {
		if a, b := bgpTrace(seed, 300), bgpTrace(seed, 300); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: traces differ", seed)
		}
		if a, b := queryMix(seed, nodes, 3, 500), queryMix(seed, nodes, 3, 500); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: query mixes differ", seed)
		}
		if a, b := auditOrder(seed, nodes, 5), auditOrder(seed, nodes, 5); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: audit orders differ", seed)
		}
	}
	if reflect.DeepEqual(bgpTrace(1, 300), bgpTrace(2, 300)) {
		t.Error("seeds 1 and 2 give the same trace")
	}
	if reflect.DeepEqual(queryMix(1, nodes, 3, 500), queryMix(2, nodes, 3, 500)) {
		t.Error("seeds 1 and 2 give the same query mix")
	}
}

func TestQueryMixShape(t *testing.T) {
	nodes := []types.NodeID{"a", "b", "c"}
	mix := queryMix(3, nodes, 2, 10*explainEvery)
	audits := 0
	for b := 0; b < len(mix); b += explainEvery {
		explains := 0
		for _, op := range mix[b : b+explainEvery] {
			if op.kind == queryExplain {
				explains++
				if op.expl < 0 || op.expl >= 2 {
					t.Fatalf("explain index %d out of range", op.expl)
				}
				continue
			}
			if op.target != nodes[audits%len(nodes)] {
				t.Fatalf("audit %d targets %s, want round robin", audits, op.target)
			}
			audits++
		}
		if explains != 1 {
			t.Fatalf("block at %d has %d explains, want 1", b, explains)
		}
	}
}

func TestAuditOrderCoversEveryNodePerRound(t *testing.T) {
	nodes := []types.NodeID{"a", "b", "c", "d", "e"}
	order := auditOrder(9, nodes, 4)
	for r := 0; r < 4; r++ {
		round := append([]types.NodeID(nil), order[r*len(nodes):(r+1)*len(nodes)]...)
		sort.Slice(round, func(i, j int) bool { return round[i] < round[j] })
		if !reflect.DeepEqual(round, nodes) {
			t.Fatalf("round %d = %v", r, round)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {11, 0}, {20, 50}, {25, 60}, {30, 60}, {40, 75},
		{100, 90}, {120, 90}, {200, 95}, {450, 95}, {500, 98}, {1000, 99}, {2000, 99.5}, {20000, 99.9},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got == 0 {
			continue
		}
		// At least minBeyondTail samples lie beyond the nearest-rank sample,
		// and the next percentile up the ladder would leave fewer.
		if b := c.n - 1 - quantile.Rank(c.n, got); b < minBeyondTail {
			t.Errorf("n=%d p%g leaves %d beyond", c.n, got, b)
		}
		for i, p := range tailLadder {
			if p == got && i > 0 && beyondRank(c.n, tailLadder[i-1]) >= minBeyondTail {
				t.Errorf("n=%d: p%g also qualifies", c.n, tailLadder[i-1])
			}
		}
	}
}

// TestWorkloadTails pins the tail percentiles README.md documents for the
// 20 s runs BENCHMARK.json asks for.
func TestWorkloadTails(t *testing.T) {
	want := map[string]float64{"sim-record": 80, "audit-replay": 98, "live-query-warm": 95}
	for name, wl := range workloads {
		if wl.tracedOnly {
			continue
		}
		if got := wl.tailFor(20 * time.Second); got != want[name] {
			t.Errorf("%s: 20 s runs report p%g, want p%g", name, got, want[name])
		}
	}
}

func TestLatencyPercentiles(t *testing.T) {
	var l latencies
	for i := 1; i <= 20; i++ {
		l = append(l, time.Duration(21-i)*time.Millisecond)
	}
	if got := l.ms(50); got != 10 {
		t.Errorf("p50 = %g ms, want 10", got)
	}
	if got := l.ms(tailPercentile(len(l))); got != 10 {
		t.Errorf("tail = %g ms, want 10 (the 10th of 20)", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	l := tr.Lane()
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// op [0,100) holds prepare [10,60) which holds two verifies of 10 ms.
	l.beginAt("op", at(0))
	l.beginAt("prepare", at(10))
	l.record("verify", at(20), at(30))
	l.record("verify", at(40), at(50))
	l.endAt("prepare", at(10), at(60), 0)
	l.endAt("op", at(0), at(100), 0)
	tot := tr.Totals()
	check := func(name string, count int64, total, self time.Duration) {
		t.Helper()
		a := tot[name]
		if a.Count != count || a.Total != total || a.Self != self {
			t.Errorf("%s = %+v, want count %d total %v self %v", name, a, count, total, self)
		}
	}
	check("op", 1, 100*time.Millisecond, 50*time.Millisecond)
	check("prepare", 1, 50*time.Millisecond, 30*time.Millisecond)
	check("verify", 2, 20*time.Millisecond, 20*time.Millisecond)
}

// TestTimedWrappersForward checks that the wrappers return exactly what the
// wrapped suite, keys and machines return.
func TestTimedWrappersForward(t *testing.T) {
	lane := newTracer().Lane()
	plainSuite := cryptoutil.Ed25519SHA256
	timed := timedSuite{plainSuite, lane}
	plainKey, err := plainSuite.GenerateKey(77)
	if err != nil {
		t.Fatal(err)
	}
	timedKey, err := timed.GenerateKey(77)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("authenticator material")
	s1, _ := plainKey.Sign(msg)
	s2, _ := timedKey.Sign(msg)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("timed key signs differently")
	}
	if !reflect.DeepEqual(plainKey.Public().Marshal(), timedKey.Public().Marshal()) {
		t.Fatal("timed public key marshals differently")
	}
	if !timedKey.Public().Verify(msg, s1) || timedKey.Public().Verify([]byte("other"), s1) {
		t.Fatal("timed public key verifies differently")
	}
	if !reflect.DeepEqual(plainSuite.Hash(msg, msg), timed.Hash(msg, msg)) || timed.Name() != plainSuite.Name() {
		t.Fatal("timed suite hashes or names differently")
	}
	tot := lane.tr.Totals()
	if tot[spanSign].Count != 1 || tot[spanVerify].Count != 2 || tot[spanHash].Bytes != int64(2*len(msg)) {
		t.Fatalf("spans = %+v", tot)
	}
}

// TestTracingLeavesExactCountsUnchanged records the same trace with and
// without the timed suite and Net.Run span, then audits every node with
// and without the timed audit environment. Keys are pooled process-wide,
// so both recordings sign with the timed keys; TestTimedWrappersForward
// covers the keys themselves.
func TestTracingLeavesExactCountsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("records two deployments")
	}
	trace := bgpTrace(5, 20)
	dir := t.TempDir()
	tr := newTracer()
	lane := tr.Lane()
	cryptoutil.DefaultVerifyCache.Reset()
	timed, err := recordQuagga(5, trace, recordDuration, filepath.Join(dir, "timed"),
		timedSuite{cryptoutil.Ed25519SHA256, tr.Background()}, lane)
	if err != nil {
		t.Fatal(err)
	}
	defer timed.close()
	cryptoutil.DefaultVerifyCache.Reset()
	plain, err := recordQuagga(5, trace, recordDuration, filepath.Join(dir, "plain"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close()
	if a, b := plain.exactSeries(), timed.exactSeries(); !reflect.DeepEqual(a, b) {
		t.Fatalf("exact series differ:\nplain %v\ntimed %v", a, b)
	}
	if tot := tr.Totals(); tot[spanSign].Count == 0 || tot[spanVerify].Count == 0 || tot[spanRun].Count != 1 {
		t.Fatalf("timed record recorded no spans: %+v", tot)
	}

	nodes := plain.net.Nodes()
	cfg := plain.net.Cfg.Core
	plainEnv, err := newAuditEnv(cfg, plain.net.Dir, nodes, plain.net.Maintainer, plain.net, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	timedEnv, err := newAuditEnv(cfg, plain.net.Dir, nodes, plain.net.Maintainer, plain.net, tr.Lane(), spanSeclogRetr)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range nodes {
		a, err := plainEnv.audit(plainEnv.auditor(), id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := timedEnv.audit(timedEnv.auditor(), id)
		if err != nil {
			t.Fatal(err)
		}
		a.stats.VerifyCacheHits, b.stats.VerifyCacheHits = 0, 0
		if a != b {
			t.Errorf("audit of %s: plain %+v, timed %+v", id, a, b)
		}
	}
	steps, err := plain.replayInputs(timedFactory(plainEnv.factory, tr.Lane()))
	if err != nil || steps == 0 {
		t.Fatalf("replayed %d steps: %v", steps, err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload lists
// in step with the ones this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json gates every workload that reports end-to-end metrics.
	gated := map[string]bool{}
	for _, w := range spec.Workloads {
		if wl, ok := workloads[w.Name]; !ok || wl.tracedOnly {
			t.Errorf("BENCHMARK.json workload %s is not implemented or has no end-to-end metrics", w.Name)
		}
		gated[w.Name] = true
	}
	for name, wl := range workloads {
		if !wl.tracedOnly && !gated[name] {
			t.Errorf("workload %s reports end-to-end metrics but BENCHMARK.json does not list it", name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
