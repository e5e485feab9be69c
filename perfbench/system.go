package main

import (
	"errors"
	"fmt"
	"sync"

	"scans/internal/cluster"
	"scans/internal/serve"
)

// system is one instance of the program under test, wired for a
// workload, with one caller per closed-loop client.
type system struct {
	callers []caller
	// servers are the serve.Server instances doing the batching: the TCP
	// server, the in-process server, or the cluster's workers.
	servers []func() serve.Stats
	coord   *cluster.Coordinator
	// addrs are the TCP listeners: the server, or the cluster's workers.
	addrs   []string
	closers []func()
}

// newSystem builds the workload's servers from default configs, listens,
// dials one caller per client and registers the user ops the workload
// addresses.
func newSystem(workload string, clients int) (sys *system, err error) {
	sys = &system{}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	listen := func() (*serve.NetServer, error) {
		ns, err := serve.Listen("127.0.0.1:0", serve.Config{})
		if err != nil {
			return nil, err
		}
		sys.closers = append(sys.closers, ns.Close)
		sys.servers = append(sys.servers, ns.Stats)
		sys.addrs = append(sys.addrs, ns.Addr())
		return ns, nil
	}
	switch workload {
	case "small-bin", "mixed-json":
		ns, err := listen()
		if err != nil {
			return nil, err
		}
		for i := 0; i < clients; i++ {
			c, err := dialCaller(workload, ns.Addr())
			if err != nil {
				return nil, err
			}
			sys.callers = append(sys.callers, c)
		}
	case "bulk":
		srv := serve.New(serve.Config{})
		sys.closers = append(sys.closers, srv.Close)
		sys.servers = append(sys.servers, srv.Stats)
		for i := 0; i < clients; i++ {
			sys.callers = append(sys.callers, inprocCaller{srv})
		}
	case "cluster":
		for i := 0; i < 2; i++ {
			if _, err := listen(); err != nil {
				return nil, err
			}
		}
		coord, err := cluster.New(cluster.Config{Workers: sys.addrs})
		if err != nil {
			return nil, err
		}
		sys.coord = coord
		sys.closers = append(sys.closers, coord.Close)
		for i := 0; i < clients; i++ {
			sys.callers = append(sys.callers, coordCaller{coord, fmt.Sprintf("client-%d", i)})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return sys, nil
}

// dialCaller opens one TCP client in the workload's protocol. JSON
// clients register the user ops under their connection's own tenant.
func dialCaller(workload, addr string) (caller, error) {
	if workload == "small-bin" {
		return dialBin(addr)
	}
	c, err := dialJSON(addr)
	if err != nil {
		return nil, err
	}
	for _, op := range userOps {
		if err := c.register(op.name, op.source); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// close tears the system down: clients first, then the coordinator,
// then the servers, in reverse order of construction.
func (sys *system) close() {
	for _, c := range sys.callers {
		c.close()
	}
	for i := len(sys.closers) - 1; i >= 0; i-- {
		sys.closers[i]()
	}
	sys.callers, sys.closers = nil, nil
}

// serveStats sums the batching servers' counters.
func (sys *system) serveStats() serve.Stats {
	var t serve.Stats
	for _, f := range sys.servers {
		s := f()
		t.Requests += s.Requests
		t.Rejected += s.Rejected
		t.DeadlineDrops += s.DeadlineDrops
		t.Shed += s.Shed
		t.PanicFailed += s.PanicFailed
		t.CorruptDrops += s.CorruptDrops
		t.Batches += s.Batches
		t.Groups += s.Groups
		t.VMPromotedReqs += s.VMPromotedReqs
		t.VMVectorReqs += s.VMVectorReqs
		t.VMScalarReqs += s.VMScalarReqs
	}
	return t
}

// warmUp sends every pool item once, spread over the callers, and
// verifies each response.
func warmUp(callers []caller, items []item) error {
	errs := make([]error, len(callers))
	var wg sync.WaitGroup
	for ci, c := range callers {
		wg.Add(1)
		go func(ci int, c caller) {
			defer wg.Done()
			for i := ci; i < len(items); i += len(callers) {
				if err := callOnce(c, &items[i]); err != nil {
					errs[ci] = fmt.Errorf("warm-up request %d: %w", i, err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// callOnce runs one untraced request and verifies it.
func callOnce(c caller, it *item) error {
	res, err := c.call(it, traceCtx{})
	if err != nil {
		return err
	}
	defer c.release(res)
	return verify(res, it.ref)
}

// errMismatch marks a response that differs from its reference.
var errMismatch = errors.New("result differs from reference")

// verify compares a result with its reference element by element.
func verify(res, ref []int64) error {
	if len(res) != len(ref) {
		return fmt.Errorf("%w: %d elements, want %d", errMismatch, len(res), len(ref))
	}
	for i := range ref {
		if res[i] != ref[i] {
			return fmt.Errorf("%w: element %d is %d, want %d", errMismatch, i, res[i], ref[i])
		}
	}
	return nil
}
