package main

import (
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// window is the length of one sample within a timed phase. Rates and
// latency percentiles are reported as the median over a phase's windows
// of each window's figure, so a burst of interference from outside the
// process moves one window, not the result.
const window = 500 * time.Millisecond

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	attempted, ok, mismatches int64
	elems                     int64         // elements in verified responses
	lat, lightLat             []int64       // ns per request; failed = MaxInt64
	elapsed                   time.Duration // first request to last response
	// goodputs and cpus hold each window's verified responses per second
	// and CPU µs per attempted request.
	goodputs, cpus []float64
	// winP50, winP90 and winLightP90 hold each window's exact p50 and
	// p90 in ns over the requests that completed in it, and the p90 over
	// its light requests.
	winP50, winP90, winLightP90 []float64
	cpuTotal                    int64 // process CPU ns over the phase
	firstErr                    error
}

// clientCount is padded so the clients' counters sit on separate cache
// lines.
type clientCount struct {
	attempted, ok atomic.Int64
	_             [48]byte
}

// runPhase drives the callers as closed-loop clients over the pool for
// dur, or until maxReqs requests when maxReqs > 0. Client i starts at
// pool position i·len/n and walks the pool in order. With recs non-nil
// every request records spans into its client's recorder, under a root
// span named root.
func runPhase(callers []caller, items []item, dur time.Duration, maxReqs int64, recs []*recorder, root string) phaseResult {
	n := len(callers)
	counts := make([]clientCount, n)
	nw := 0 // windows; a phase bounded by request count has none
	if maxReqs == 0 {
		nw = max(1, int(dur/window))
	}
	// lats and lights hold each client's latencies, of all and of light
	// requests, by the window the request completed in (all in bucket 0
	// without windows).
	lats, lights := make([][][]int64, n), make([][][]int64, n)
	for ci := range lats {
		lats[ci], lights[ci] = make([][]int64, max(nw, 1)), make([][]int64, max(nw, 1))
	}
	errs := make([]error, n)
	var mism, elems, issued atomic.Int64
	start, cpu0 := time.Now(), cpuTime()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for ci := range callers {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := callers[ci]
			cnt := &counts[ci]
			var rec *recorder
			if recs != nil {
				rec = recs[ci]
			}
			for k := ci * len(items) / n; ; k++ {
				if time.Now().After(end) || (maxReqs > 0 && issued.Add(1) > maxReqs) {
					return
				}
				it := &items[k%len(items)]
				tc := traceCtx{rec: rec, req: nextReq.Add(1), parent: -1}
				tc = tc.child(tc.begin(root))
				t0 := time.Now()
				res, err := c.call(it, tc)
				lat := time.Since(t0).Nanoseconds()
				if err == nil {
					s := tc.begin("verify")
					err = verify(res, it.ref)
					tc.end(s)
					c.release(res)
				}
				tc.end(tc.parent)
				cnt.attempted.Add(1)
				if err != nil {
					lat = math.MaxInt64
					if errors.Is(err, errMismatch) {
						mism.Add(1)
					}
					if errs[ci] == nil {
						errs[ci] = err
					}
				} else {
					cnt.ok.Add(1)
					elems.Add(int64(len(it.data)))
				}
				w := 0
				if nw > 1 {
					w = min(int(time.Since(start)*time.Duration(nw)/dur), nw-1)
				}
				lats[ci][w] = append(lats[ci][w], lat)
				if it.light {
					lights[ci][w] = append(lights[ci][w], lat)
				}
			}
		}(ci)
	}
	goodputs, cpus := sampleWindows(counts, start, dur, nw)
	wg.Wait()
	r := phaseResult{mismatches: mism.Load(), elems: elems.Load(), elapsed: time.Since(start)}
	if nw > 0 {
		r.winP50, r.winP90, r.winLightP90 = windowLatencies(lats, lights)
	}
	for ci := range counts {
		r.attempted += counts[ci].attempted.Load()
		r.ok += counts[ci].ok.Load()
	}
	r.lat = make([]int64, 0, r.attempted)
	for ci := range lats {
		for w := range lats[ci] {
			r.lat = append(r.lat, lats[ci][w]...)
			r.lightLat = append(r.lightLat, lights[ci][w]...)
		}
	}
	r.firstErr = errors.Join(errs...)
	slices.Sort(r.lat)
	slices.Sort(r.lightLat)
	r.goodputs, r.cpus, r.cpuTotal = goodputs, cpus, cpuTime()-cpu0
	return r
}

// merge combines phases run one after another into one result. The
// latency samples stay with the phases: the result carries their
// window figures.
func merge(phases []phaseResult) phaseResult {
	var r phaseResult
	var errs []error
	for _, ph := range phases {
		r.attempted += ph.attempted
		r.ok += ph.ok
		r.mismatches += ph.mismatches
		r.elems += ph.elems
		r.elapsed += ph.elapsed
		r.cpuTotal += ph.cpuTotal
		r.goodputs = append(r.goodputs, ph.goodputs...)
		r.cpus = append(r.cpus, ph.cpus...)
		r.winP50 = append(r.winP50, ph.winP50...)
		r.winP90 = append(r.winP90, ph.winP90...)
		r.winLightP90 = append(r.winLightP90, ph.winLightP90...)
		errs = append(errs, ph.firstErr)
	}
	r.firstErr = errors.Join(errs...)
	return r
}

// goodput is the median of the windows' goodput, or the phase's mean
// when it had no windows.
func (r phaseResult) goodput() float64 {
	if len(r.goodputs) == 0 {
		return float64(r.ok) / r.elapsed.Seconds()
	}
	return median(r.goodputs)
}

// cpuPerReq is the median of the windows' CPU µs per attempted request,
// or the phase's mean when it had no windows.
func (r phaseResult) cpuPerReq() float64 {
	if len(r.cpus) == 0 {
		return float64(r.cpuTotal) / 1e3 / float64(max(r.attempted, 1))
	}
	return median(r.cpus)
}

// sampleWindows samples the clients' counters and the process CPU time
// at the boundaries of the phase's nw windows, returning per-window
// goodput (verified responses per second) and CPU µs per attempted
// request. A phase without windows (nw 0) gets none.
func sampleWindows(counts []clientCount, start time.Time, dur time.Duration, nw int) (goodputs, cpus []float64) {
	if nw == 0 {
		return nil, nil
	}
	w := dur / time.Duration(nw)
	total := func() (att, ok int64) {
		for i := range counts {
			att += counts[i].attempted.Load()
			ok += counts[i].ok.Load()
		}
		return att, ok
	}
	prevT, prevCPU := start, cpuTime()
	prevAtt, prevOK := total()
	for k := 1; k <= nw; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * w)))
		t, cpu := time.Now(), cpuTime()
		att, ok := total()
		goodputs = append(goodputs, float64(ok-prevOK)/t.Sub(prevT).Seconds())
		if att > prevAtt {
			cpus = append(cpus, float64(cpu-prevCPU)/1e3/float64(att-prevAtt))
		}
		prevT, prevCPU, prevAtt, prevOK = t, cpu, att, ok
	}
	return goodputs, cpus
}

// windowLatencies returns, for each window that completed a request, the
// exact p50 and p90 of its latencies over all clients, and the p90 of its
// light requests.
func windowLatencies(all, light [][][]int64) (p50, p90, lightP90 []float64) {
	for w := range all[0] {
		var a, l []int64
		for ci := range all {
			a = append(a, all[ci][w]...)
			l = append(l, light[ci][w]...)
		}
		slices.Sort(a)
		slices.Sort(l)
		if len(a) > 0 {
			p50 = append(p50, float64(pct(a, 0.5)))
			p90 = append(p90, float64(pct(a, 0.9)))
		}
		if len(l) > 0 {
			lightP90 = append(lightP90, float64(pct(l, 0.9)))
		}
	}
	return p50, p90, lightP90
}

// cpuTime is the process's user+system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pct returns the q-quantile of sorted samples (nearest rank).
func pct(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
