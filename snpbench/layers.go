package main

// layerSet turns span totals and process counters into per-op per-layer
// metrics. Workloads add the counts only they can see (public counters of
// the program) to m.
type layerSet struct {
	t   map[string]agg
	ops float64
	m   map[string]float64
}

// coreSpans are the core-layer calls whose self time is core.query_self_s.
var coreSpans = []string{spanPrepare, spanCommit, spanFinalize, spanExplain}

func newLayerSet(totals map[string]agg, ops float64, p0, p1 procSample) *layerSet {
	L := &layerSet{t: totals, ops: max(ops, 1), m: map[string]float64{}}
	L.m["cryptoutil.sign_s"] = L.total(spanSign)
	L.m["cryptoutil.verify_s"] = L.total(spanVerify)
	L.m["cryptoutil.hash_s"] = L.total(spanHash)
	L.m["dlog.step_s"] = L.total(spanStep)
	L.m["seclog.retrieve_s"] = L.total(spanSeclogRetr)
	L.m["seclog.retrieve_bytes"] = L.bytes(spanSeclogRetr)
	L.m["transport.retrieve_s"] = L.total(spanTransRetr)
	L.m["transport.retrieve_bytes"] = L.bytes(spanTransRetr)
	L.m["transport.node_lock_wait_s"] = L.total(spanLockWait)
	L.m["core.latest_auth_s"] = L.total(spanLatestAuth)
	L.m["core.prepare_s"] = L.total(spanPrepare)
	L.m["core.commit_s"] = L.total(spanCommit)
	L.m["core.finalize_s"] = L.total(spanFinalize)
	L.m["core.explain_s"] = L.total(spanExplain)
	L.m["core.insert_s"] = L.total(spanInsert)
	self := 0.0
	for _, s := range coreSpans {
		self += L.self(s)
	}
	L.m["core.query_self_s"] = self
	L.m["queryfront.rtt_s"] = L.total(spanFrontRTT)
	L.m["runtime.alloc_bytes_per_op"] = float64(p1.allocBytes-p0.allocBytes) / L.ops
	if cpu := p1.totalCPU - p0.totalCPU; cpu > 0 {
		L.m["runtime.gc_cpu_fraction"] = (p1.gcCPU - p0.gcCPU) / cpu
	}
	L.m["process.cpu_s_per_op"] = (p1.cpu - p0.cpu).Seconds() / L.ops
	return L
}

// total is the per-op inclusive time of span name, in seconds.
func (L *layerSet) total(name string) float64 { return L.t[name].Total.Seconds() / L.ops }

// self is the per-op self time of span name, in seconds.
func (L *layerSet) self(name string) float64 { return L.t[name].Self.Seconds() / L.ops }

// bytes is the per-op byte count recorded on span name.
func (L *layerSet) bytes(name string) float64 { return float64(L.t[name].Bytes) / L.ops }

// perOp sets metric name to count/ops.
func (L *layerSet) perOp(name string, count float64) { L.m[name] = count / L.ops }
