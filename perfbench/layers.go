package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"scans/internal/arena"
	"scans/internal/binwire"
	"scans/internal/cluster"
	"scans/internal/combine"
	"scans/internal/scan"
	"scans/internal/serve"
)

// counters is a snapshot of every public counter the per-layer deltas
// come from.
type counters struct {
	serve serve.Stats
	coord cluster.Stats
	arena arena.Counters
	mem   runtime.MemStats
}

func snapshot(sys *system) counters {
	c := counters{serve: sys.serveStats(), arena: arena.Stats()}
	if sys.coord != nil {
		c.coord = sys.coord.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterMetrics turns the counter deltas of a phase that served reqs
// requests into per-layer metrics.
func counterMetrics(m map[string]float64, a, b counters, reqs int64) {
	ds := func(f func(serve.Stats) uint64) uint64 { return f(b.serve) - f(a.serve) }
	dc := func(f func(cluster.Stats) uint64) uint64 { return f(b.coord) - f(a.coord) }
	batches := ds(func(s serve.Stats) uint64 { return s.Batches })
	m["serve.reqs_per_batch"] = ratio(ds(func(s serve.Stats) uint64 { return s.Requests }), batches)
	m["serve.groups_per_batch"] = ratio(ds(func(s serve.Stats) uint64 { return s.Groups }), batches)
	m["serve.failed"] = float64(ds(func(s serve.Stats) uint64 {
		return s.Rejected + s.Shed + s.DeadlineDrops + s.PanicFailed + s.CorruptDrops
	}))
	scalar := ds(func(s serve.Stats) uint64 { return s.VMScalarReqs })
	userReqs := scalar + ds(func(s serve.Stats) uint64 { return s.VMPromotedReqs + s.VMVectorReqs })
	m["combine.scalar_frac"] = ratio(scalar, userReqs)
	m["arena.miss_frac"] = ratio(b.arena.Misses-a.arena.Misses, b.arena.Gets-a.arena.Gets)
	m["go.allocs_per_req"] = ratio(b.mem.Mallocs-a.mem.Mallocs, uint64(reqs))
	m["go.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["go.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	creqs := dc(func(s cluster.Stats) uint64 { return s.Requests })
	m["cluster.pieces_per_req"] = ratio(dc(func(s cluster.Stats) uint64 { return s.Pieces }), creqs)
	m["cluster.retries"] = float64(dc(func(s cluster.Stats) uint64 { return s.Retries }))
	m["cluster.xchg_fallbacks"] = float64(dc(func(s cluster.Stats) uint64 { return s.XchgFallbacks }))
	m["cluster.carry_prescan_elems_per_req"] = ratio(dc(func(s cluster.Stats) uint64 { return s.CarryPrescanElems }), creqs)
}

// codecReplay times the binary codec on the workload's own requests and
// reference results: AppendScan + AppendResult as encode, ParseRequest +
// ParseResponse as decode, p50 per request in µs.
func codecReplay(items []item, budget time.Duration, rec *recorder) (encUS, decUS float64, err error) {
	var enc, dec []int64
	var buf []byte
	end := time.Now().Add(budget)
	for k := 0; k == 0 || time.Now().Before(end); k++ {
		it := &items[k%len(items)]
		tc := traceCtx{rec: rec, req: nextReq.Add(1), parent: -1}
		tc = tc.child(tc.begin("replay.codec"))
		id := uint64(k + 1)
		t0 := time.Now()
		s := tc.begin("binwire.AppendScan")
		buf = appendScan(buf[:0], id, it)
		tc.end(s)
		t1 := time.Now()
		s = tc.begin("binwire.ParseRequest")
		req, perr := binwire.ParseRequest(buf[4:])
		tc.end(s)
		t2 := time.Now()
		if perr != nil {
			return 0, 0, fmt.Errorf("ParseRequest: %w", perr)
		}
		if verr := verify(req.Data, it.data); verr != nil {
			return 0, 0, fmt.Errorf("ParseRequest data: %w", verr)
		}
		arena.PutInt64s(req.Data)
		t3 := time.Now()
		s = tc.begin("binwire.AppendResult")
		buf = binwire.AppendResult(buf[:0], id, it.ref)
		tc.end(s)
		t4 := time.Now()
		s = tc.begin("binwire.ParseResponse")
		resp, perr := binwire.ParseResponse(buf[4:])
		tc.end(s)
		t5 := time.Now()
		if perr != nil {
			return 0, 0, fmt.Errorf("ParseResponse: %w", perr)
		}
		if verr := verify(resp.Result, it.ref); verr != nil {
			return 0, 0, fmt.Errorf("ParseResponse result: %w", verr)
		}
		arena.PutInt64s(resp.Result)
		tc.end(tc.parent)
		enc = append(enc, t1.Sub(t0).Nanoseconds()+t4.Sub(t3).Nanoseconds())
		dec = append(dec, t2.Sub(t1).Nanoseconds()+t5.Sub(t4).Nanoseconds())
	}
	slices.Sort(enc)
	slices.Sort(dec)
	return float64(pct(enc, 0.5)) / 1e3, float64(pct(dec, 0.5)) / 1e3, nil
}

// kernelGroup is the builtin-op requests of one spec, scanned in one
// SegScanViews call the way the batcher runs one batch group.
type kernelGroup struct {
	op                  string
	inclusive, backward bool
	views               []scan.View[int64]
	refs                [][]int64
	elems               int
}

func kernelGroups(items []item) (groups []*kernelGroup, nreq int) {
	byKey := map[string]*kernelGroup{}
	for i := range items {
		it := &items[i]
		if it.spec.Op == serve.OpUser {
			continue
		}
		key := it.op + "/" + it.kind + "/" + it.dir
		g := byKey[key]
		if g == nil {
			g = &kernelGroup{op: it.op, inclusive: it.kind == "inclusive", backward: it.dir == "backward"}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.views = append(g.views, scan.View[int64]{Dst: make([]int64, len(it.data)), Src: it.data})
		g.refs = append(g.refs, it.ref)
		g.elems += len(it.data)
		nreq++
	}
	return groups, nreq
}

func (g *kernelGroup) run(p int) {
	switch g.op {
	case "sum":
		runViews(scan.Add[int64]{}, g, p)
	case "max":
		runViews(scan.Max[int64]{Id: math.MinInt64}, g, p)
	case "min":
		runViews(scan.Min[int64]{Id: math.MaxInt64}, g, p)
	}
}

func runViews[O scan.Op[int64]](op O, g *kernelGroup, p int) {
	switch {
	case !g.inclusive && !g.backward:
		scan.SegScanViewsExclusive(op, g.views, p)
	case g.inclusive && !g.backward:
		scan.SegScanViewsInclusive(op, g.views, p)
	case !g.inclusive:
		scan.SegScanViewsExclusiveBackward(op, g.views, p)
	default:
		scan.SegScanViewsInclusiveBackward(op, g.views, p)
	}
}

// kernelReplay runs the workload's builtin requests straight through the
// internal/scan view kernels at p workers, one pass over the pool after
// another for budget, verifying the first pass. It returns the median
// pass rate in elements/s and the median kernel time per request.
func kernelReplay(groups []*kernelGroup, nreq, p int, budget time.Duration, rec *recorder) (rate float64, perReq time.Duration, err error) {
	var rates, times []float64
	end := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		tc := traceCtx{rec: rec, req: nextReq.Add(1), parent: -1}
		tc = tc.child(tc.begin(fmt.Sprintf("replay.kernel.p%d", p)))
		var elems int
		t0 := time.Now()
		for _, g := range groups {
			s := tc.begin("scan.SegScanViews")
			g.run(p)
			tc.end(s)
			elems += g.elems
		}
		d := time.Since(t0)
		tc.end(tc.parent)
		if pass == 0 {
			for _, g := range groups {
				for i, v := range g.views {
					if verr := verify(v.Dst, g.refs[i]); verr != nil {
						return 0, 0, fmt.Errorf("kernel %s at p=%d: %w", g.op, p, verr)
					}
				}
			}
		}
		rates = append(rates, float64(elems)/d.Seconds())
		times = append(times, float64(d)/float64(nreq))
	}
	return median(rates), time.Duration(median(times)), nil
}

// combineReplay measures internal/combine on the workload's own inputs:
// registration of the three user ops, gcd through the scalar Program.Exec
// and satadd through the vector VecPlan.ScanBlocked, each verified
// against the plain-loop reference.
func combineReplay(items []item, budget time.Duration, rec *recorder) (registerMS, scalarNS, vectorNS float64, err error) {
	tc := traceCtx{rec: rec, req: nextReq.Add(1), parent: -1}
	var regs []float64
	var satadd *combine.Registered
	for r := 0; r < 5; r++ {
		rg := combine.NewRegistry(0)
		t0 := time.Now()
		for _, op := range userOps {
			s := tc.begin("combine.Registry.Register")
			reg, rerr := rg.Register("bench", op.name, op.source)
			tc.end(s)
			if rerr != nil {
				return 0, 0, 0, fmt.Errorf("register %s: %w", op.name, rerr)
			}
			if op.name == "satadd" {
				satadd = reg
			}
		}
		regs = append(regs, float64(time.Since(t0))/1e6)
	}
	// Inputs: each item's data, capped so one call stays short; gcd and
	// satadd get non-negative words so both stay on their usual paths.
	const maxElems = 1 << 14
	src := func(k int, lo int64) []int64 {
		d := items[k%len(items)].data
		d = d[:min(len(d), maxElems)]
		out := make([]int64, len(d))
		for i, v := range d {
			out[i] = lo + v&(1<<40-1)
		}
		return out
	}
	prog := combine.MustParse(combine.ExampleGCD)
	var fr combine.Frame
	var scalar []float64
	end := time.Now().Add(budget)
	for k := 0; k == 0 || time.Now().Before(end); k++ {
		in := src(k, 1)
		out := make([]int64, len(in))
		acc, x := []int64{0}, []int64{0}
		s := tc.begin("combine.Program.Exec")
		t0 := time.Now()
		for i, v := range in {
			out[i], x[0] = acc[0], v
			if xerr := prog.Exec(&fr, acc, acc, x); xerr != nil {
				return 0, 0, 0, fmt.Errorf("gcd Exec: %w", xerr)
			}
		}
		scalar = append(scalar, float64(time.Since(t0))/float64(len(in)))
		tc.end(s)
		ref, _ := reference("user:gcd", false, false, in)
		if verr := verify(out, ref); verr != nil {
			return 0, 0, 0, fmt.Errorf("gcd Exec: %w", verr)
		}
	}
	vp := satadd.Plan()
	if vp == nil {
		return 0, 0, 0, fmt.Errorf("satadd has no vector plan")
	}
	sc := combine.NewVecScratch()
	var vector []float64
	end = time.Now().Add(budget)
	for k := 0; k == 0 || time.Now().Before(end); k++ {
		in := src(k, 1<<53)
		out := make([]int64, len(in))
		s := tc.begin("combine.VecPlan.ScanBlocked")
		t0 := time.Now()
		serr := vp.ScanBlocked(sc, satadd.Prog, out, in, false, false, 0, false)
		vector = append(vector, float64(time.Since(t0))/float64(len(in)))
		tc.end(s)
		if serr != nil {
			return 0, 0, 0, fmt.Errorf("satadd ScanBlocked: %w", serr)
		}
		ref, _ := reference("user:satadd", false, false, in)
		if verr := verify(out, ref); verr != nil {
			return 0, 0, 0, fmt.Errorf("satadd ScanBlocked: %w", verr)
		}
	}
	return median(regs), median(scalar), median(vector), nil
}

// clusterReplay sends requests straight to the first worker over the
// binary protocol: slices the size of one piece (p50 µs of one client)
// and whole requests from as many clients as the workload runs.
func clusterReplay(sys *system, items []item, pieceElems int, budget time.Duration, recs []*recorder) (pieceUS, singleUS float64, err error) {
	pieces := make([]item, len(items))
	for i, it := range items {
		n := min(len(it.data), max(pieceElems, 1))
		// The pool is sum exclusive forward, so a prefix of the reference
		// is the reference of the prefix.
		it.data, it.ref = it.data[:n], it.ref[:n]
		pieces[i] = it
	}
	run := func(items []item, clients int, recs []*recorder) (float64, error) {
		callers := make([]caller, 0, clients)
		defer func() {
			for _, c := range callers {
				c.close()
			}
		}()
		for i := 0; i < clients; i++ {
			c, derr := dialBin(sys.addrs[0])
			if derr != nil {
				return 0, derr
			}
			callers = append(callers, c)
		}
		ph := runPhase(callers, items, budget, 0, recs, "replay.worker")
		if ph.ok != ph.attempted {
			return 0, fmt.Errorf("direct worker requests: %w", ph.firstErr)
		}
		return float64(pct(ph.lat, 0.5)) / 1e3, nil
	}
	if pieceUS, err = run(pieces, 1, recs[:1]); err != nil {
		return 0, 0, err
	}
	singleUS, err = run(items, len(sys.callers), recs)
	return pieceUS, singleUS, err
}
