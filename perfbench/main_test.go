package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestReference(t *testing.T) {
	cases := []struct {
		op                  string
		inclusive, backward bool
		src, want           []int64
	}{
		{"sum", false, false, []int64{1, 2, 3}, []int64{0, 1, 3}},
		{"sum", true, true, []int64{1, 2, 3}, []int64{6, 5, 3}},
		{"max", false, false, []int64{4, -1, 7}, []int64{math.MinInt64, 4, 4}},
		{"min", true, true, []int64{4, -1, 7}, []int64{-1, -1, 7}},
		{"user:satadd", true, false, []int64{-2, 1, 1}, []int64{-2, -1, -1}},
		{"user:gcd", false, false, []int64{12, 18, 5}, []int64{0, 12, 6}},
		{"user:gcd", true, false, []int64{0, -4, 6}, []int64{0, -4, 2}},
	}
	for _, c := range cases {
		got, err := reference(c.op, c.inclusive, c.backward, c.src)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("reference(%s, inclusive=%v, backward=%v, %v) = %v, %v; want %v", c.op, c.inclusive, c.backward, c.src, got, err, c.want)
		}
	}
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, err := genInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genInputs(w, 7)
		c, _ := genInputs(w, 8)
		if len(a) != len(b) || !slices.Equal(a[0].data, b[0].data) || !slices.Equal(a[len(a)-1].ref, b[len(b)-1].ref) {
			t.Errorf("%s: the same seed gave different inputs", w)
		}
		if slices.Equal(a[0].data, c[0].data) {
			t.Errorf("%s: seeds 7 and 8 gave the same first input", w)
		}
	}
}

// corrupt flips one element of one reference result.
func corrupt(items []item) {
	items[len(items)/2].ref[len(items[len(items)/2].ref)/2] ^= 1
}

func TestCorruptedReferenceFailsWarmUp(t *testing.T) {
	items, err := genInputs("small-bin", 3)
	if err != nil {
		t.Fatal(err)
	}
	corrupt(items)
	if _, err := measure(io.Discard, "small-bin", items, 2, 200*time.Millisecond); !errors.Is(err, errMismatch) {
		t.Fatalf("measure with a corrupted reference: err = %v, want a mismatch", err)
	}
}

func TestCorruptedReferenceFailsTimedRun(t *testing.T) {
	for _, w := range []string{"small-bin", "mixed-json"} {
		items, err := genInputs(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := newSystem(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(items)
		ph := runPhase(sys.callers, items, 300*time.Millisecond, 0, nil, "request")
		sys.close()
		if ph.mismatches == 0 || ph.ok == ph.attempted {
			t.Fatalf("%s: %d mismatches, %d of %d verified; want the corrupted reference to fail", w, ph.mismatches, ph.ok, ph.attempted)
		}
		res := result{correct: ph.mismatches == 0, attempted: ph.attempted, failed: ph.attempted - ph.ok}
		var out bytes.Buffer
		if code := emit(bufio.NewWriter(&out), io.Discard, res, endToEnd); code == 0 {
			t.Errorf("%s: exit code 0 for a run with mismatches", w)
		}
		if !strings.Contains(out.String(), `"correct":false`) {
			t.Errorf("%s: result line %q does not report correct=false", w, out.String())
		}
	}
}

// TestRunPrintsEveryMetric runs each workload briefly in both modes and
// checks the last line names every declared metric.
func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			args := []string{"--workload", w, "--seed", "5", "--seconds", "1", "--trace", []string{"0", "1"}[trace], "--outdir", t.TempDir()}
			if code := run(args, &out, io.Discard); code != 0 {
				t.Fatalf("%s trace=%d: exit code %d\n%s", w, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: result %+v", w, trace, res)
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s missing or unit %q", w, trace, d.name, m.Unit)
				}
			}
		}
	}
}
