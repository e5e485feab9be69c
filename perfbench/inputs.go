package main

import (
	"fmt"
	"math"
	"math/rand"

	"scans/internal/combine"
	"scans/internal/serve"
)

// item is one request of a workload's input pool together with its
// reference result, computed at set-up by the plain loops in this file.
type item struct {
	op, kind, dir string // wire spelling: "sum", "user:gcd", "inclusive", ...
	spec          serve.Spec
	data          []int64
	ref           []int64
	// light marks requests whose op is a builtin or the promoted
	// user:add: the cheap ops whose p90 is the head-of-line number.
	light bool
}

// userOps are the combine programs the mixed-json workload registers,
// by the name its requests address them with ("user:<name>").
var userOps = []struct{ name, source string }{
	{"add", combine.ExampleAdd},
	{"satadd", combine.ExampleSatAdd},
	{"gcd", combine.ExampleGCD},
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"small-bin", "mixed-json", "bulk", "cluster"}

// genInputs builds a workload's input pool from seed. The program under
// test never sees the seed, only the generated vectors.
func genInputs(name string, seed int64) ([]item, error) {
	rng := rand.New(rand.NewSource(seed))
	var items []item
	add := func(op, kind, dir string, data []int64) error {
		spec, err := serve.ParseSpec(op, kind, dir)
		if err != nil {
			return err
		}
		ref, err := reference(op, kind == "inclusive", dir == "backward", data)
		if err != nil {
			return err
		}
		light := op == "sum" || op == "max" || op == "min" || op == "user:add"
		items = append(items, item{op: op, kind: kind, dir: dir, spec: spec, data: data, ref: ref, light: light})
		return nil
	}
	kinds := []string{"exclusive", "inclusive"}
	dirs := []string{"forward", "backward"}
	switch name {
	case "small-bin":
		// Sizes log-uniform in [64, 4096] over all 12 builtin specs.
		sizes := logSizes(768, 64, 4096)
		for i, n := range sizes {
			op := []string{"sum", "max", "min"}[i%3]
			if err := add(op, kinds[i/3%2], dirs[i/6%2], randVec(rng, n, -1_000_000, 1_000_000)); err != nil {
				return nil, err
			}
		}
	case "mixed-json":
		// 4096 elements, round-robin over one builtin and three user ops.
		for i := 0; i < 192; i++ {
			var data []int64
			op := []string{"sum", "user:add", "user:satadd", "user:gcd"}[i%4]
			switch op {
			case "user:satadd":
				// Unsigned words near 2^53: prefixes saturate about half way.
				data = randVec(rng, 4096, 0, 1<<54)
			case "user:gcd":
				data = randVec(rng, 4096, 1, 1_000_000_000)
			default:
				data = randVec(rng, 4096, -1_000_000, 1_000_000)
			}
			if err := add(op, "exclusive", "forward", data); err != nil {
				return nil, err
			}
		}
	case "bulk":
		// 2^20 elements: sum and max, exclusive and inclusive.
		for i := 0; i < 8; i++ {
			op := []string{"sum", "max"}[i%2]
			if err := add(op, kinds[i/2%2], "forward", randVec(rng, 1<<20, -1_000_000, 1_000_000)); err != nil {
				return nil, err
			}
		}
	case "cluster":
		// Sum exclusive, sizes log-uniform in [2^14, 2^20].
		for _, n := range logSizes(24, 1<<14, 1<<20) {
			if err := add("sum", "exclusive", "forward", randVec(rng, n, -1_000_000, 1_000_000)); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if name != "mixed-json" { // mixed-json keeps its round-robin order
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	}
	return items, nil
}

// logSizes returns k sizes spaced log-uniformly over [lo, hi]: the
// midpoints of k equal strata of log size. Every seed gets the same size
// mix, so seeds change only the values and the order of the requests.
func logSizes(k, lo, hi int) []int {
	sizes := make([]int, k)
	span := math.Log(float64(hi) / float64(lo))
	for i := range sizes {
		u := (float64(i) + 0.5) / float64(k)
		sizes[i] = int(math.Round(float64(lo) * math.Exp(u*span)))
	}
	return sizes
}

func randVec(rng *rand.Rand, n int, lo, hi int64) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = lo + rng.Int63n(hi-lo+1)
	}
	return v
}

// reference computes a scan with plain loops, independently of
// internal/scan and internal/combine: forward folds combine(acc, x),
// backward walks from the tail folding combine(x, acc); exclusive writes
// the accumulator before the fold, inclusive after.
func reference(op string, inclusive, backward bool, src []int64) ([]int64, error) {
	var f func(a, b int64) int64
	var id int64
	switch op {
	case "sum", "user:add":
		f = func(a, b int64) int64 { return a + b }
	case "max":
		f, id = func(a, b int64) int64 { return max(a, b) }, math.MinInt64
	case "min":
		f, id = func(a, b int64) int64 { return min(a, b) }, math.MaxInt64
	case "user:satadd":
		f = satAdd
	case "user:gcd":
		f = gcd
	default:
		return nil, fmt.Errorf("no reference for op %q", op)
	}
	dst := make([]int64, len(src))
	acc := id
	for k := range src {
		i := k
		if backward {
			i = len(src) - 1 - k
		}
		if !inclusive {
			dst[i] = acc
		}
		if backward {
			acc = f(src[i], acc)
		} else {
			acc = f(acc, src[i])
		}
		if inclusive {
			dst[i] = acc
		}
	}
	return dst, nil
}

// satAdd is unsigned saturating addition on int64 words read as uint64.
func satAdd(a, b int64) int64 {
	s := uint64(a) + uint64(b)
	if s < uint64(a) {
		return -1 // 2^64-1
	}
	return int64(s)
}

// gcd is Euclid's algorithm with identity 0. A zero operand returns the
// other one as is; otherwise both are taken by magnitude, with
// |MinInt64| read as 1.
func gcd(a, b int64) int64 {
	if b == 0 {
		return a
	}
	if a == 0 {
		return b
	}
	x, y := absOrOne(a), absOrOne(b)
	for y != 0 {
		x, y = y, x%y
	}
	return x
}

func absOrOne(v int64) int64 {
	if v < 0 {
		v = -v
	}
	if v < 0 {
		return 1
	}
	return v
}
