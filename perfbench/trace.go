package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. parent indexes the span
// that caused it in the same recorder (-1 for a root); req is the
// request id the spans of one request share.
type span struct {
	name       string
	req        uint32
	parent     int32
	start, end int64 // ns since the recorder's epoch
}

// recorder keeps one goroutine's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorders(n int, epoch time.Time) []*recorder {
	recs := make([]*recorder, n)
	for i := range recs {
		recs[i] = &recorder{epoch: epoch}
	}
	return recs
}

// nextReq hands out request ids, unique across every phase of a run.
var nextReq atomic.Uint32

// traceCtx is the handle a traced call records its spans through. The
// zero value (no recorder) records nothing.
type traceCtx struct {
	rec    *recorder
	req    uint32
	parent int32
}

func (tc traceCtx) begin(name string) int32 {
	if tc.rec == nil {
		return -1
	}
	r := tc.rec
	r.spans = append(r.spans, span{name: name, req: tc.req, parent: tc.parent, start: time.Since(r.epoch).Nanoseconds()})
	return int32(len(r.spans) - 1)
}

func (tc traceCtx) end(i int32) {
	if tc.rec != nil && i >= 0 {
		tc.rec.spans[i].end = time.Since(tc.rec.epoch).Nanoseconds()
	}
}

// child returns a context whose spans are children of span i.
func (tc traceCtx) child(i int32) traceCtx {
	tc.parent = i
	return tc
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			p := spans[s.parent]
			self[s.parent] -= min(s.end, p.end) - max(s.start, p.start)
		}
	}
	return self
}

// spanSummary is the median self time of each span name, in µs, with
// the number of spans behind it.
type spanSummary struct {
	name    string
	n       int
	selfP50 float64
}

func summarize(recs []*recorder) []spanSummary {
	byName := map[string][]int64{}
	for _, r := range recs {
		self := selfTimes(r.spans)
		for i, s := range r.spans {
			byName[s.name] = append(byName[s.name], self[i])
		}
	}
	var out []spanSummary
	for name, v := range byName {
		slices.Sort(v)
		out = append(out, spanSummary{name, len(v), float64(pct(v, 0.5)) / 1e3})
	}
	slices.SortFunc(out, func(a, b spanSummary) int {
		if a.name < b.name {
			return -1
		}
		return 1
	})
	return out
}

// writeSpans writes every span as a gzipped TSV row: request id, span
// id, parent id (-1 for roots), name, start and end (ns since the run's
// trace epoch) and self time.
func writeSpans(path string, recs []*recorder) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "req\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns")
	base := int32(0)
	for _, r := range recs {
		self := selfTimes(r.spans)
		for i, s := range r.spans {
			parent := s.parent
			if parent >= 0 {
				parent += base
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.req, base+int32(i), parent, s.name, s.start, s.end, self[i])
		}
		base += int32(len(r.spans))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
