package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/seclog"
	"repro/internal/types"
)

// Span names. Each is "<layer>.<call>", named after the repo module whose
// public function the span times; per-layer metrics are derived from them.
const (
	spanOp           = "op"
	spanSign         = "cryptoutil.sign"
	spanVerify       = "cryptoutil.verify"
	spanHash         = "cryptoutil.hash"
	spanStep         = "dlog.step"
	spanRun          = "simnet.run"
	spanSeclogRetr   = "seclog.retrieve"
	spanTransRetr    = "transport.retrieve"
	spanLatestAuth   = "core.latest_auth"
	spanPrepare      = "core.prepare"
	spanCommit       = "core.commit"
	spanFinalize     = "core.finalize"
	spanExplain      = "core.explain"
	spanInsert       = "core.insert"
	spanLockWait     = "transport.node_lock_wait"
	spanFrontRTT     = "queryfront.rtt"
	maxStoredSpans   = 50_000 // per lane; aggregates count every span
	backgroundLaneID = -1
)

// span is one recorded interval. All spans of one op share op; parent is
// the index of the enclosing span in the same lane (-1 for none).
type span struct {
	Lane   int    `json:"lane"`
	Op     uint64 `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// agg accumulates one span name: how many, total time, and self time (total
// minus the time covered by direct child spans).
type agg struct {
	Count int64
	Total time.Duration
	Self  time.Duration
	Bytes int64
}

type openSpan struct {
	name  string
	start time.Time
	child time.Duration
	idx   int
}

// Tracer keeps spans in memory until the run ends. A nested lane belongs to
// one goroutine (a benchmark worker, or the serial simulator): its spans
// nest strictly, so self time is exact. The background lane collects
// spans from goroutines the benchmark does not own (node handlers, the
// frontend's sessions); they are counted and timed but have no parent.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	lanes []*Lane
	bg    *Lane
}

// Lane is one goroutine's span stack, or the shared background lane.
type Lane struct {
	tr     *Tracer
	id     int
	shared bool
	mu     sync.Mutex // held only on the shared lane
	op     uint64
	stack  []openSpan
	aggs   map[string]*agg
	spans  []span
	lost   int
}

func newTracer() *Tracer {
	t := &Tracer{t0: time.Now()}
	t.bg = &Lane{tr: t, id: backgroundLaneID, shared: true, aggs: map[string]*agg{}}
	return t
}

// Lane returns a new nested lane for a goroutine the benchmark owns.
func (t *Tracer) Lane() *Lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &Lane{tr: t, id: len(t.lanes), aggs: map[string]*agg{}}
	t.lanes = append(t.lanes, l)
	return l
}

// Background is the lane for spans recorded on goroutines the benchmark
// does not own.
func (t *Tracer) Background() *Lane { return t.bg }

// SetOp tags the spans this lane records from now on with op.
func (l *Lane) SetOp(op uint64) {
	if l != nil {
		l.op = op
	}
}

// begin opens a span. On the shared lane it only notes the start.
func (l *Lane) begin(name string) time.Time { return l.beginAt(name, time.Now()) }

// end closes the span opened by the matching begin, adding bytes to its
// layer's byte count.
func (l *Lane) end(name string, start time.Time, bytes int64) {
	l.endAt(name, start, time.Now(), bytes)
}

// record adds a span that already ended, as a child of the open span.
func (l *Lane) record(name string, start, end time.Time) {
	l.beginAt(name, start)
	l.endAt(name, start, end, 0)
}

func (l *Lane) beginAt(name string, now time.Time) time.Time {
	if l.shared {
		return now
	}
	idx := -1
	if len(l.spans) < maxStoredSpans {
		parent := -1
		if n := len(l.stack); n > 0 {
			parent = l.stack[n-1].idx
		}
		idx = len(l.spans)
		l.spans = append(l.spans, span{Lane: l.id, Op: l.op, Parent: parent, Name: name,
			Start: now.Sub(l.tr.t0).Nanoseconds()})
	} else {
		l.lost++
	}
	l.stack = append(l.stack, openSpan{name: name, start: now, idx: idx})
	return now
}

func (l *Lane) endAt(name string, start, now time.Time, bytes int64) {
	d := now.Sub(start)
	if l.shared {
		l.mu.Lock()
		a := l.aggFor(name)
		a.Count++
		a.Total += d
		a.Self += d
		a.Bytes += bytes
		if len(l.spans) < maxStoredSpans {
			l.spans = append(l.spans, span{Lane: l.id, Parent: -1, Name: name,
				Start: start.Sub(l.tr.t0).Nanoseconds(), End: now.Sub(l.tr.t0).Nanoseconds()})
		} else {
			l.lost++
		}
		l.mu.Unlock()
		return
	}
	top := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	if top.name != name {
		panic(fmt.Sprintf("snpbench: span %q closed while %q is open", name, top.name))
	}
	if top.idx >= 0 {
		l.spans[top.idx].End = now.Sub(l.tr.t0).Nanoseconds()
	}
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += d
	}
	a := l.aggFor(name)
	a.Count++
	a.Total += d
	a.Self += d - top.child
	a.Bytes += bytes
}

func (l *Lane) aggFor(name string) *agg {
	a := l.aggs[name]
	if a == nil {
		a = &agg{}
		l.aggs[name] = a
	}
	return a
}

// cryptoSpans are the spans the timed suite and its keys record.
var cryptoSpans = []string{spanSign, spanVerify, spanHash}

// totalOf sums the time l has recorded so far under names.
func (l *Lane) totalOf(names ...string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var d time.Duration
	for _, name := range names {
		if a := l.aggs[name]; a != nil {
			d += a.Total
		}
	}
	return d
}

// Do times fn as one span on l; a nil lane just calls fn.
func (l *Lane) Do(name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	start := l.begin(name)
	fn()
	l.end(name, start, 0)
}

// Totals sums every lane's aggregates by span name.
func (t *Tracer) Totals() map[string]agg {
	out := map[string]agg{}
	t.mu.Lock()
	lanes := append([]*Lane{t.bg}, t.lanes...)
	t.mu.Unlock()
	for _, l := range lanes {
		l.mu.Lock()
		for name, a := range l.aggs {
			s := out[name]
			s.Count += a.Count
			s.Total += a.Total
			s.Self += a.Self
			s.Bytes += a.Bytes
			out[name] = s
		}
		l.mu.Unlock()
	}
	return out
}

// Reset drops everything recorded so far (set-up work is not measured).
func (t *Tracer) Reset() {
	t.mu.Lock()
	lanes := append([]*Lane{t.bg}, t.lanes...)
	t.mu.Unlock()
	for _, l := range lanes {
		l.mu.Lock()
		if len(l.stack) != 0 {
			l.mu.Unlock()
			panic("snpbench: tracer reset with open spans")
		}
		l.aggs = map[string]*agg{}
		l.spans = nil
		l.lost = 0
		l.mu.Unlock()
	}
}

// WriteSpans writes every kept span as one JSON object per line.
func (t *Tracer) WriteSpans(path string) (kept, lost int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	lanes := append([]*Lane{t.bg}, t.lanes...)
	t.mu.Unlock()
	var all []span
	for _, l := range lanes {
		l.mu.Lock()
		all = append(all, l.spans...)
		lost += l.lost
		l.mu.Unlock()
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	for i := range all {
		if err = enc.Encode(&all[i]); err != nil {
			f.Close()
			return 0, 0, err
		}
	}
	return len(all), lost, f.Close()
}

// ---------------------------------------------------------------------------
// Wrappers around interfaces the program already accepts. Each forwards
// every call unchanged and only times it.

// timedSuite wraps a cryptoutil.Suite: hashing is timed directly, and keys
// it generates time Sign and (through their public keys) Verify. It keeps
// the wrapped suite's name, so pooled keys and every encoding are unchanged.
type timedSuite struct {
	cryptoutil.Suite
	lane *Lane
}

func (s timedSuite) Hash(parts ...[]byte) []byte {
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	start := s.lane.begin(spanHash)
	h := s.Suite.Hash(parts...)
	s.lane.end(spanHash, start, n)
	return h
}

func (s timedSuite) GenerateKey(seed int64) (cryptoutil.PrivateKey, error) {
	k, err := s.Suite.GenerateKey(seed)
	if err != nil {
		return nil, err
	}
	return timedKey{k, s.lane}, nil
}

type timedKey struct {
	cryptoutil.PrivateKey
	lane *Lane
}

func (k timedKey) Sign(msg []byte) ([]byte, error) {
	start := k.lane.begin(spanSign)
	sig, err := k.PrivateKey.Sign(msg)
	k.lane.end(spanSign, start, int64(len(msg)))
	return sig, err
}

func (k timedKey) Public() cryptoutil.PublicKey {
	return timedPub{k.PrivateKey.Public(), k.lane}
}

// timedPub times Verify. Marshal is forwarded, so the verification cache
// keys on exactly the bytes the plain key would give.
type timedPub struct {
	cryptoutil.PublicKey
	lane *Lane
}

func (p timedPub) Verify(msg, sig []byte) bool {
	start := p.lane.begin(spanVerify)
	ok := p.PublicKey.Verify(msg, sig)
	p.lane.end(spanVerify, start, int64(len(msg)))
	return ok
}

// poolTimedKeys pre-generates the pooled keys for seeds through a timed
// suite, so deployments that take their keys from cryptoutil.PooledKey
// (simnet, livetcp) sign and verify through timed keys. It must run before
// anything else in the process pools those seeds.
func poolTimedKeys(lane *Lane, seeds []int64) error {
	s := timedSuite{cryptoutil.Ed25519SHA256, lane}
	for _, seed := range seeds {
		k, err := cryptoutil.PooledKey(s, seed)
		if err != nil {
			return err
		}
		if _, ok := k.(timedKey); !ok {
			return fmt.Errorf("snpbench: key seed %d was pooled before tracing started", seed)
		}
	}
	return nil
}

// timedDirectory returns a copy of dir whose keys verify on lane.
func timedDirectory(dir *core.Directory, ids []types.NodeID, lane *Lane) (*core.Directory, error) {
	out := core.NewDirectory()
	for _, id := range ids {
		pub, err := dir.Key(id)
		if err != nil {
			return nil, err
		}
		if tp, ok := pub.(timedPub); ok {
			pub = tp.PublicKey
		}
		out.Register(id, timedPub{pub, lane})
	}
	return out, nil
}

// timedFactory wraps a MachineFactory so every machine it builds times Step.
func timedFactory(f types.MachineFactory, lane *Lane) types.MachineFactory {
	return func(self types.NodeID) types.Machine {
		m := f(self)
		if d, ok := m.(types.StateDumper); ok {
			return timedDumper{timedMachine{m, lane}, d}
		}
		return timedMachine{m, lane}
	}
}

type timedMachine struct {
	types.Machine
	lane *Lane
}

func (m timedMachine) Step(ev types.Event) []types.Output {
	start := m.lane.begin(spanStep)
	out := m.Machine.Step(ev)
	m.lane.end(spanStep, start, 0)
	return out
}

// timedDumper keeps the StateDumper the wrapped machine implements, so
// checkpoint checks see the same extant tuples.
type timedDumper struct {
	timedMachine
	d types.StateDumper
}

func (m timedDumper) DumpExtants() []types.ExtantTuple { return m.d.DumpExtants() }

// timedFetcher wraps a core.Fetcher, timing Retrieve as span name and
// counting the retrieved segment's wire bytes.
type timedFetcher struct {
	core.Fetcher
	lane *Lane
	name string
}

func (f timedFetcher) Retrieve(node types.NodeID, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
	start := f.lane.begin(f.name)
	resp, err := f.Fetcher.Retrieve(node, req)
	var n int64
	if err == nil && resp != nil && resp.Segment != nil {
		n = int64(resp.Segment.WireSize())
	}
	f.lane.end(f.name, start, n)
	return resp, err
}

func (f timedFetcher) LatestAuth(node types.NodeID) (seclog.Authenticator, error) {
	start := f.lane.begin(spanLatestAuth)
	a, err := f.Fetcher.LatestAuth(node)
	f.lane.end(spanLatestAuth, start, 0)
	return a, err
}
