// Command snpbench is the repository's benchmark. It runs one named
// workload of the SNP reproduction from a seed for a fixed time, checks the
// program's outputs, and prints every metric by name and unit, ending with
// one JSON result line:
//
//	go run . --workload sim-record --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (tracing off); with
// --trace 1 a separate, traced run reports per-layer metrics from spans the
// benchmark records around calls into each layer. README.md in this
// directory defines every workload and metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef declares one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics reported with tracing off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

// perLayer are the metrics reported by the traced run, on every workload;
// a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"cryptoutil.signs", "1/op"},
	{"cryptoutil.sign_s", "s/op"},
	{"cryptoutil.verifies", "1/op"},
	{"cryptoutil.verify_cpu_ops", "1/op"},
	{"cryptoutil.verify_s", "s/op"},
	{"cryptoutil.verify_cache_hit_ratio", "ratio"},
	{"cryptoutil.hashed_bytes", "B/op"},
	{"cryptoutil.hash_s", "s/op"},
	{"dlog.steps", "1/op"},
	{"dlog.step_s", "s/op"},
	{"simnet.messages", "1/op"},
	{"simnet.run_s", "s/op"},
	{"simnet.self_s", "s/op"},
	{"seclog.entries_appended", "1/op"},
	{"seclog.log_bytes", "B/op"},
	{"seclog.tables", "count"},
	{"seclog.retrieve_s", "s/op"},
	{"seclog.retrieve_bytes", "B/op"},
	{"core.latest_auth_s", "s/op"},
	{"core.prepare_s", "s/op"},
	{"core.commit_s", "s/op"},
	{"core.finalize_s", "s/op"},
	{"core.explain_s", "s/op"},
	{"core.query_self_s", "s/op"},
	{"core.audit_cache_hit_ratio", "ratio"},
	{"core.insert_s", "s/op"},
	{"transport.frames_sent", "1/op"},
	{"transport.frames_received", "1/op"},
	{"transport.dropped", "count"},
	{"transport.rpc_served", "1/op"},
	{"transport.retrieve_s", "s/op"},
	{"transport.retrieve_bytes", "B/op"},
	{"transport.node_lock_wait_s", "s/op"},
	{"queryfront.rtt_s", "s/op"},
	{"queryfront.server_s", "s/op"},
	{"queryfront.wire_admission_s", "s/op"},
	{"queryfront.shed", "count"},
	{"queryfront.expired", "count"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"process.cpu_s_per_op", "s/op"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	tracer  *Tracer // nil with tracing off
	workDir string  // working space inside the checkout, removed at exit
}

// report is what a workload measured.
type report struct {
	setups     []time.Duration // one per set-up repetition
	attempted  int64
	failed     int64
	problems   []string
	throughput float64 // ops per second, "op" as the workload defines it
	peakRSS    float64 // MiB, when read before post-run checks; else read at exit
	lat        latencies
	tailPct    float64
	// named are further figures of the workload (the Fig. 5 traffic
	// factor, Fig. 6 log growth), printed for people.
	named []namedValue
	// layer holds per-layer metrics (traced runs only).
	layer map[string]float64
	// exact holds counts that must repeat bit-for-bit for a seed.
	exact map[string]float64
	notes []string
}

type namedValue struct {
	name, unit string
	value      float64
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) show(name, unit string, v float64) {
	r.named = append(r.named, namedValue{name, unit, v})
}

// workloadSpec is one named workload.
type workloadSpec struct {
	run func(cfg runConfig) (*report, error)
	// minOpsPerSecond is the slowest op rate seen on the reference host (2
	// cores); with the run length it fixes the tail percentile.
	minOpsPerSecond float64
	// aliases name throughput_per_s, latency_p50_ms and latency_tail_ms
	// the way performance reports about this workload do.
	aliases [3]string
	// tracedOnly workloads have no end-to-end figures steady enough to
	// report; they run only with --trace 1, for their per-layer metrics.
	tracedOnly bool
}

var workloads = map[string]workloadSpec{
	"sim-record": {runSimRecord, 3,
		[3]string{"record_msgs_per_s", "record_p50_ms", "record_tail_ms"}, false},
	"audit-replay": {runAuditReplay, 45,
		[3]string{"query_qps", "query_p50_ms", "query_tail_ms"}, false},
	"live-query-warm": {runLiveQueryWarm, 20,
		[3]string{"query_qps", "query_p50_ms", "query_tail_ms"}, false},
	"live-ingest": {runLiveIngest, ingestRate,
		[3]string{"ingest_frames_per_s", "ingest_lag_p50_ms", "ingest_lag_tail_ms"}, true},
}

// tailFor is the workload's tail percentile for runs of length d.
func (w workloadSpec) tailFor(d time.Duration) float64 {
	return tailPercentile(int(w.minOpsPerSecond * d.Seconds()))
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// saved is what a run leaves in the results directory for later runs of the
// same build, workload and seed: exact counts to compare, and end-to-end
// figures to compute the tracing overhead from.
type saved struct {
	Trace    bool               `json:"trace"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	Exact    map[string]float64 `json:"exact"`
}

// outDir holds everything a run writes, relative to the directory it runs
// in (the repository root); .gitignore lists it.
const outDir = ".bench_build"

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured time per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "snpbench: usage: --workload <%s> --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	if wl.tracedOnly && *trace == 0 {
		fmt.Fprintf(os.Stderr, "snpbench: %s reports per-layer metrics only; run it with --trace 1\n", *name)
		return 2
	}
	workDir, err := os.MkdirTemp(mkdir(outDir, "work"), *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "snpbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), workDir: workDir}
	if *trace == 1 {
		cfg.tracer = newTracer()
	}
	fmt.Printf("host: cpus=%d gomaxprocs=%d go=%s os=%s/%s seed=%d workload=%s trace=%d seconds=%g network=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		*seed, *name, *trace, *seconds, networkOf(*name))
	rep, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snpbench: %s: %v\n", *name, err)
		return 1
	}
	rep.tailPct = wl.tailFor(cfg.seconds)
	if rep.peakRSS == 0 {
		rep.peakRSS = peakRSSMB()
	}
	e2e := map[string]float64{
		"setup_s":          medianSeconds(rep.setups),
		"peak_rss_mb":      rep.peakRSS,
		"throughput_per_s": rep.throughput,
		"latency_p50_ms":   rep.lat.ms(50),
		"latency_tail_ms":  rep.lat.ms(rep.tailPct),
	}
	// Saved results are keyed by the build, so runs compare only with runs
	// of the same code: a changed program may change its exact counts.
	build, err := buildID()
	if err != nil {
		fmt.Fprintln(os.Stderr, "snpbench: identifying the build:", err)
		return 1
	}
	resultsDir := mkdir(outDir, "results", build)
	checkSaved(rep, resultsDir, *name, *seed)
	printReport(rep, wl, e2e)
	if *trace == 1 && !wl.tracedOnly {
		printOverhead(resultsDir, *name, *seed, e2e)
		path := filepath.Join(mkdir(outDir, "traces"), fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		kept, lost, werr := cfg.tracer.WriteSpans(path)
		if werr != nil {
			fmt.Fprintln(os.Stderr, "snpbench: writing spans:", werr)
		} else {
			fmt.Printf("spans: %d written to %s (%d beyond the in-memory cap not kept)\n", kept, path, lost)
		}
	}
	if rep.failed == 0 {
		// Only a clean run becomes the reference later runs compare with.
		save(resultsDir, *name, *seed, saved{Trace: *trace == 1, EndToEnd: e2e, Exact: rep.exact})
	}

	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	if *trace == 1 {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{rep.layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snpbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	return strings.Join(slices.Sorted(maps.Keys(workloads)), "|")
}

// buildID names the running binary by the digest of its contents.
func buildID() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func networkOf(workload string) string {
	if workload == "live-query-warm" || workload == "live-ingest" {
		return "loopback-tcp"
	}
	return "in-process"
}

func mkdir(parts ...string) string {
	p := filepath.Join(parts...)
	_ = os.MkdirAll(p, 0o755) // a failure surfaces on first use
	return p
}

func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

func printReport(rep *report, wl workloadSpec, e2e map[string]float64) {
	if !wl.tracedOnly {
		for _, m := range endToEnd {
			fmt.Printf("metric %-32s %14.6g %s\n", m.name, e2e[m.name], m.unit)
		}
	}
	fmt.Printf("metric %-32s %14.6g %s\n", "fail_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio")
	if !wl.tracedOnly {
		for i, m := range endToEnd[2:] { // throughput, p50, tail: the aliased three
			fmt.Printf("metric %-32s %14.6g %s (= %s)\n", wl.aliases[i], e2e[m.name], m.unit, m.name)
		}
	}
	for _, n := range rep.named {
		fmt.Printf("metric %-32s %14.6g %s\n", n.name, n.value, n.unit)
	}
	fmt.Printf("samples: %d ops, tail percentile p%g (%d samples beyond it), %d set-ups\n",
		len(rep.lat), rep.tailPct, beyondRank(len(rep.lat), rep.tailPct), len(rep.setups))
	if b := beyondRank(len(rep.lat), rep.tailPct); b < minBeyondTail {
		fmt.Fprintf(os.Stderr, "snpbench: only %d samples beyond the tail percentile\n", b)
	}
	if rep.layer != nil {
		for _, m := range perLayer {
			fmt.Printf("layer  %-32s %14.6g %s\n", m.name, rep.layer[m.name], m.unit)
		}
	}
	for _, n := range rep.notes {
		fmt.Println("note:", n)
	}
	for _, p := range rep.problems {
		fmt.Println("FAIL:", p)
	}
}

func savedPath(dir, name string, seed int64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, t))
}

func loadSaved(path string) (*saved, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var s saved
	if json.Unmarshal(b, &s) != nil {
		return nil, false
	}
	return &s, true
}

// checkSaved fails the run when an exact count differs from the one an
// earlier run of the same build, workload and seed recorded (traced or not).
func checkSaved(rep *report, dir, name string, seed int64) {
	for _, trace := range []bool{false, true} {
		prev, ok := loadSaved(savedPath(dir, name, seed, trace))
		if !ok {
			continue
		}
		keys := make([]string, 0, len(rep.exact))
		for k := range rep.exact {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if old, had := prev.Exact[k]; had && old != rep.exact[k] {
				rep.fail("exact count %s = %v, an earlier run of this seed (trace=%v) gave %v", k, rep.exact[k], trace, old)
			}
		}
	}
}

func save(dir, name string, seed int64, s saved) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err == nil {
		err = os.WriteFile(savedPath(dir, name, seed, s.Trace), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snpbench: saving result:", err)
	}
}

// printOverhead prints the traced end-to-end figures minus the untraced
// ones, when an untraced run of the same workload and seed left them.
func printOverhead(dir, name string, seed int64, traced map[string]float64) {
	base, ok := loadSaved(savedPath(dir, name, seed, false))
	if !ok {
		fmt.Println("trace-overhead: no untraced run of this seed to compare with")
		return
	}
	for _, m := range endToEnd {
		b := base.EndToEnd[m.name]
		pct := 0.0
		if b != 0 {
			pct = 100 * (traced[m.name] - b) / b
		}
		fmt.Printf("trace-overhead %-24s %+14.6g %s (%+.1f%%)\n", m.name, traced[m.name]-b, m.unit, pct)
	}
}
