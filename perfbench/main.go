// Command perfbench is the repository's benchmark. It builds the scan
// service in process from default configs, drives it with closed-loop
// clients (one per CPU, at most two), checks every response against a
// reference computed with plain loops at set-up, and prints every metric
// by name with its unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the same workload runs untraced, then
// traced and untraced by turns, then its requests are replayed through
// each layer's public entry points; the metrics are the per-layer ones,
// the spans go to a gzipped TSV under --outdir, and the report lists
// each span's median self time. perfbench/run.sh builds and runs it from
// the checkout root.
//
// Workloads (see inputs.go for the input pools):
//
//	small-bin   binary TCP, 64..4096 elements, all 12 builtin specs
//	mixed-json  JSON TCP, 4096 elements, sum/user:add/user:satadd/user:gcd
//	bulk        in-process serve.Server, 2^20 elements, sum and max
//	cluster     coordinator over two binary loopback workers, 2^14..2^20
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"scans/internal/scan"
	"scans/internal/serve"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order. p90_ms.light is the p90 over sum and user:add requests; on the
// workloads that send only builtin ops every request is light.
var endToEnd = []metricDef{
	{"goodput_rps", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"p90_ms.light", "ms"},
	{"cpu_us_per_req", "us"},
	{"max_rss_mb", "MiB"},
	{"ok_frac", "ratio"},
	{"setup_s", "s"},
}

// perLayer metrics that do not apply to a workload read 0 (cluster.*
// off the cluster workload, serve.wire_us on in-process bulk), and
// serve.hol_ratio reads 1 off mixed-json, whose light ops are the only
// ones that share batches with costly ones.
var perLayer = []metricDef{
	{"serve.reqs_per_batch", "count"},
	{"serve.groups_per_batch", "count"},
	{"serve.inproc_p50_us", "us"},
	{"serve.wire_us", "us"},
	{"serve.hol_ratio", "ratio"},
	{"serve.failed", "count"},
	{"binwire.encode_us", "us"},
	{"binwire.decode_us", "us"},
	{"scan.kernel_elems_per_s", "1/s"},
	{"scan.par_speedup", "ratio"},
	{"scan.share", "ratio"},
	{"scan.serving_overhead", "ratio"},
	{"combine.register_ms", "ms"},
	{"combine.scalar_ns_per_elem", "ns"},
	{"combine.vector_ns_per_elem", "ns"},
	{"combine.scalar_frac", "ratio"},
	{"arena.miss_frac", "ratio"},
	{"go.allocs_per_req", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"cluster.pieces_per_req", "count"},
	{"cluster.retries", "count"},
	{"cluster.xchg_fallbacks", "count"},
	{"cluster.carry_prescan_elems_per_req", "count"},
	{"cluster.piece_rtt_us", "us"},
	{"cluster.single_node_p50_us", "us"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.p99_ms", "ms"},
	{"bench.samples", "count"},
}

// setups is how many times an untraced run sets the system up; setup_s
// is their median, and each set-up serves an equal share of the run.
const setups = 5

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fl.Int64("seed", 1, "seed of the workload's input pool")
	seconds := fl.Float64("seconds", 10, "length of the measured run")
	trace := fl.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	commit := fl.String("commit", "unknown", "git commit of the code under test, recorded with the result")
	outdir := fl.String("outdir", ".bench_build/perfbench", "directory for span traces")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if dur <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	items, err := genInputs(*workload, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	clients := min(2, runtime.NumCPU())
	report := bufio.NewWriter(stdout)
	defer report.Flush()
	record := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace, "clients": clients,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpuModel(), "commit": *commit, "source_sha256": sourceDigest("."),
	}
	rec, _ := json.Marshal(map[string]any{"host": record})
	fmt.Fprintf(report, "%s\n", rec)

	var res result
	defs := endToEnd
	if *trace == 0 {
		res, err = measure(report, *workload, items, clients, dur)
	} else {
		defs = perLayer
		trace := filepath.Join(*outdir, fmt.Sprintf("trace-%s-seed%d.tsv.gz", *workload, *seed))
		res, err = traced(report, *workload, items, clients, dur, trace)
	}
	if err != nil {
		report.Flush()
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return emit(report, stderr, res, defs)
}

// emit prints the result line: every metric of defs by name with its
// unit. It returns the exit code, non-zero when a response differed
// from its reference.
func emit(report *bufio.Writer, stderr io.Writer, res result, defs []metricDef) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{res.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(report, "%s\n", line)
	report.Flush()
	if !res.correct {
		fmt.Fprintln(stderr, "perfbench: responses differ from the reference")
		return 1
	}
	return 0
}

// measure is the untraced run. It sets the system up setups times, and
// drives each set-up for an equal share of dur before tearing it down;
// setup_s is the median set-up time, and the other metrics pool the
// requests and windows of every share.
func measure(report io.Writer, workload string, items []item, clients int, dur time.Duration) (result, error) {
	var setupS []float64
	var phases []phaseResult
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		sys, err := newSystem(workload, clients)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		if err := warmUp(sys.callers, items); err != nil {
			sys.close()
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		p := runPhase(sys.callers, items, dur/setups, 0, nil, "request")
		sys.close()
		fmt.Fprintf(report, "set-up %d: %.4f s, then %d requests, goodput %.4g req/s, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms\n",
			k, setupS[k], p.attempted, p.goodput(), float64(pct(p.lat, 0.5))/1e6, float64(pct(p.lat, 0.9))/1e6, float64(pct(p.lat, 0.99))/1e6)
		// The window figures are what is reported; dropping the samples
		// keeps them out of later set-ups' heap and max_rss_mb.
		p.lat, p.lightLat = nil, nil
		phases = append(phases, p)
		runtime.GC() // each set-up starts from a collected heap
	}
	ph := merge(phases)
	m := map[string]float64{
		"goodput_rps":    ph.goodput(),
		"p50_ms":         median(ph.winP50) / 1e6,
		"p90_ms":         median(ph.winP90) / 1e6,
		"p90_ms.light":   median(ph.winLightP90) / 1e6,
		"cpu_us_per_req": ph.cpuPerReq(),
		"max_rss_mb":     maxRSSMB(), // includes one set-up's latency samples
		"ok_frac":        float64(ph.ok) / float64(max(ph.attempted, 1)),
		"setup_s":        median(setupS),
	}
	fmt.Fprintf(report, "%s: %d requests in %.2fs (%d verified, %d mismatched), one latency sample each; set-ups %v s\n",
		workload, ph.attempted, ph.elapsed.Seconds(), ph.ok, ph.mismatches, roundAll(setupS))
	fmt.Fprintf(report, "goodput per window: %v\n", roundAll(ph.goodputs))
	fmt.Fprintf(report, "median over %d windows of each window's exact p50 %.4f ms, p90 %.4f ms, light p90 %.4f ms\n",
		len(ph.winP50), m["p50_ms"], m["p90_ms"], m["p90_ms.light"])
	if ph.firstErr != nil {
		fmt.Fprintf(report, "first error: %v\n", ph.firstErr)
	}
	return result{correct: ph.mismatches == 0, attempted: ph.attempted, failed: ph.attempted - ph.ok, metrics: m}, nil
}

// traced is the traced run: an untraced phase for the counters, traced
// phases alternating with untraced ones for the tracing overhead, then
// replays of the workload's requests through each layer's public entry
// points.
func traced(report io.Writer, workload string, items []item, clients int, dur time.Duration, tracePath string) (result, error) {
	sys, err := newSystem(workload, clients)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()
	if err := warmUp(sys.callers, items); err != nil {
		return result{}, err
	}
	m := map[string]float64{}
	c0 := snapshot(sys)
	a := runPhase(sys.callers, items, dur*30/100, 0, nil, "request")
	c1 := snapshot(sys)
	counterMetrics(m, c0, c1, a.attempted)
	p50A := float64(pct(a.lat, 0.5))

	// Untraced and traced phases alternate, so a drift in the host's
	// speed falls on both sides of the tracing overhead alike.
	epoch := time.Now()
	recs := newRecorders(clients, epoch)
	var plain, spanned []phaseResult
	for r := 0; r < 3; r++ {
		plain = append(plain, runPhase(sys.callers, items, dur/20, 0, nil, "request"))
		spanned = append(spanned, runPhase(sys.callers, items, dur/20, 15_000, recs, "request"))
	}
	u, b := merge(plain), merge(spanned)
	replays := newRecorders(clients, epoch)
	layers := newRecorders(1, epoch)
	recs = append(append(recs, replays...), layers...)
	phases := []phaseResult{a, u, b}

	// serve: the same requests submitted in process, then (mixed-json)
	// the light requests alone.
	srv := serve.New(serve.Config{})
	for _, op := range userOps {
		if workload == "mixed-json" {
			if _, err := srv.RegisterScanOp("", op.name, op.source); err != nil {
				srv.Close()
				return result{}, err
			}
		}
	}
	inproc := make([]caller, clients)
	for i := range inproc {
		inproc[i] = inprocCaller{srv}
	}
	ip := runPhase(inproc, items, dur/10, 0, replays, "replay.inproc")
	srv.Close()
	phases = append(phases, ip)
	m["serve.inproc_p50_us"] = float64(pct(ip.lat, 0.5)) / 1e3
	if workload != "bulk" {
		m["serve.wire_us"] = (p50A - float64(pct(ip.lat, 0.5))) / 1e3
	}
	m["serve.hol_ratio"] = 1
	if workload == "mixed-json" {
		var light []item
		for _, it := range items {
			if it.light {
				light = append(light, it)
			}
		}
		var lc []caller
		for i := 0; i < clients; i++ {
			c, err := dialCaller(workload, sys.addrs[0])
			if err != nil {
				return result{}, err
			}
			defer c.close()
			lc = append(lc, c)
		}
		alone := runPhase(lc, light, dur/10, 0, replays, "replay.light")
		phases = append(phases, alone)
		m["serve.hol_ratio"] = float64(pct(a.lightLat, 0.9)) / float64(pct(alone.lat, 0.9))
	}

	// binwire, scan and combine on the workload's own inputs.
	if m["binwire.encode_us"], m["binwire.decode_us"], err = codecReplay(items, dur/20, layers[0]); err != nil {
		return result{}, err
	}
	groups, nreq := kernelGroups(items)
	rateP, perReq, err := kernelReplay(groups, nreq, scan.Workers(0), dur/20, layers[0])
	if err != nil {
		return result{}, err
	}
	rate1, _, err := kernelReplay(groups, nreq, 1, dur/20, layers[0])
	if err != nil {
		return result{}, err
	}
	var elems int
	for _, it := range items {
		elems += len(it.data)
	}
	meanN := float64(elems) / float64(len(items))
	m["scan.kernel_elems_per_s"] = rateP
	m["scan.par_speedup"] = rateP / rate1
	m["scan.share"] = float64(perReq) / p50A
	m["scan.serving_overhead"] = 1 - a.goodput()*meanN/rateP
	if m["combine.register_ms"], m["combine.scalar_ns_per_elem"], m["combine.vector_ns_per_elem"], err = combineReplay(items, dur/40, layers[0]); err != nil {
		return result{}, err
	}

	// cluster: one piece, and the whole request, sent to one worker.
	if sys.coord != nil {
		pieces := c1.coord.Pieces - c0.coord.Pieces
		pieceElems := int(a.elems / int64(max(pieces, 1)))
		if m["cluster.piece_rtt_us"], m["cluster.single_node_p50_us"], err = clusterReplay(sys, items, pieceElems, dur/20, replays); err != nil {
			return result{}, err
		}
	}

	goodputU := float64(u.ok) / u.elapsed.Seconds()
	goodputB := float64(b.ok) / b.elapsed.Seconds()
	m["bench.trace_overhead_frac"] = 1 - goodputB/goodputU
	m["bench.p99_ms"] = float64(pct(a.lat, 0.99)) / 1e6
	m["bench.samples"] = float64(len(a.lat))

	fmt.Fprintf(report, "%s traced run: untraced %d requests (p50 %.3f ms, p99 %.3f ms, %d samples), traced %d requests\n",
		workload, a.attempted, p50A/1e6, m["bench.p99_ms"], len(a.lat), b.attempted)
	fmt.Fprintf(report, "roofline: internal/scan kernel %.4g elems/s at p=%d (%.4g at p=1); served goodput·n %.4g elems/s (%.4g req/s × %.0f); serving overhead %.3f\n",
		rateP, scan.Workers(0), rate1, a.goodput()*meanN, a.goodput(), meanN, m["scan.serving_overhead"])
	if m["scan.serving_overhead"] < 0 {
		fmt.Fprintf(report, "  (negative: %d requests served at once outrun one kernel call at p=%d)\n", clients, scan.Workers(0))
	}
	fmt.Fprintf(report, "tracing overhead: %.4f (untraced %.4g req/s, traced %.4g req/s)\n", m["bench.trace_overhead_frac"], goodputU, goodputB)
	fmt.Fprintln(report, "span self time p50 (µs):")
	for _, s := range summarize(recs) {
		fmt.Fprintf(report, "  %-32s %10.2f  (n=%d)\n", s.name, s.selfP50, s.n)
	}
	for _, d := range perLayer {
		fmt.Fprintf(report, "  %-40s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return result{}, err
	}
	if err := writeSpans(tracePath, recs); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(report, "spans written to %s\n", tracePath)

	res := result{correct: true, metrics: m}
	var errs []error
	for _, ph := range phases {
		res.attempted += ph.attempted
		res.failed += ph.attempted - ph.ok
		res.correct = res.correct && ph.mismatches == 0
		errs = append(errs, ph.firstErr)
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintf(report, "errors: %v\n", err)
	}
	return res, nil
}

func roundAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(int64(x*1e4)) / 1e4
	}
	return out
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result identifies the code it measured even where there is no git
// commit to record. Hidden directories (build output) are skipped.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	slices.Sort(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
