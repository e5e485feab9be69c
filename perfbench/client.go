package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"

	"scans/internal/arena"
	"scans/internal/binwire"
	"scans/internal/cluster"
	"scans/internal/serve"
)

// caller is one closed-loop client's handle on the system under test.
// call runs one request to completion and returns its result; release
// hands the result back once it has been verified.
type caller interface {
	call(it *item, tc traceCtx) ([]int64, error)
	release(res []int64)
	close()
}

// maxFrame bounds one response frame or line; it matches the servers'
// default line budget.
const maxFrame = serve.DefaultMaxLineBytes

// binClient speaks the binary protocol with one request in flight.
type binClient struct {
	conn net.Conn
	r    *bufio.Reader
	buf  []byte
	id   uint64
}

func dialBin(addr string) (*binClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &binClient{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}
	echo := make([]byte, len(binwire.Magic))
	if _, err := io.WriteString(conn, binwire.Magic); err != nil {
		conn.Close()
		return nil, fmt.Errorf("binary preamble: %w", err)
	}
	if _, err := io.ReadFull(c.r, echo); err != nil || string(echo) != binwire.Magic {
		conn.Close()
		return nil, fmt.Errorf("binary preamble not echoed by %s: %v", addr, err)
	}
	return c, nil
}

func (c *binClient) call(it *item, tc traceCtx) ([]int64, error) {
	c.id++
	s := tc.begin("binwire.encode")
	c.buf = appendScan(c.buf[:0], c.id, it)
	tc.end(s)
	s = tc.begin("wire.roundtrip")
	_, err := c.conn.Write(c.buf)
	var payload []byte
	if err == nil {
		payload, err = binwire.ReadFrame(c.r, maxFrame)
	}
	tc.end(s)
	if err != nil {
		return nil, err
	}
	s = tc.begin("binwire.decode")
	resp, err := binwire.ParseResponse(payload)
	arena.PutBytes(payload)
	tc.end(s)
	switch {
	case err != nil:
		return nil, err
	case resp.ID != c.id:
		arena.PutInt64s(resp.Result)
		return nil, fmt.Errorf("response id %d, want %d", resp.ID, c.id)
	case resp.Type == binwire.FError:
		return nil, fmt.Errorf("%s: %s", resp.Code, resp.Error)
	case resp.Type != binwire.FResult:
		arena.PutInt64s(resp.Result)
		return nil, fmt.Errorf("unexpected response frame type %#x", resp.Type)
	}
	return resp.Result, nil
}

func (c *binClient) release(res []int64) { arena.PutInt64s(res) }
func (c *binClient) close()              { c.conn.Close() }

// appendScan appends the binary request frame for it.
func appendScan(buf []byte, id uint64, it *item) []byte {
	if it.spec.Op == serve.OpUser {
		return binwire.AppendScanUser(buf, id, kindByte(it.kind), dirByte(it.dir), it.spec.User, 0, 0, "", it.data)
	}
	return binwire.AppendScan(buf, id, opByte(it.op), kindByte(it.kind), dirByte(it.dir), binwire.ElemInt64, 0, "", it.data, nil)
}

// Enum bytes of the binary protocol (DESIGN.md §8).
func opByte(op string) byte {
	switch op {
	case "sum":
		return 0
	case "max":
		return 1
	case "min":
		return 2
	}
	return binwire.Invalid
}

func kindByte(kind string) byte {
	if kind == "inclusive" {
		return 1
	}
	return 0
}

func dirByte(dir string) byte {
	if dir == "backward" {
		return 1
	}
	return 0
}

// jsonClient speaks newline-delimited JSON with one request in flight.
// Results are decoded into a buffer the client reuses.
type jsonClient struct {
	conn net.Conn
	r    *bufio.Reader
	buf  []byte
	line []byte
	res  []int64
	id   uint64
}

func dialJSON(addr string) (*jsonClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &jsonClient{conn: conn, r: bufio.NewReaderSize(conn, 256<<10)}, nil
}

// register registers a combine op under the connection's own tenant.
func (c *jsonClient) register(name, source string) error {
	c.id++
	req, err := json.Marshal(map[string]any{"id": c.id, "type": "register_op", "op": "", "op_name": name, "source": source})
	if err != nil {
		return err
	}
	line, err := c.roundTrip(append(req, '\n'))
	if err != nil {
		return err
	}
	var resp struct {
		OpHash uint64 `json:"op_hash"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return err
	}
	if resp.OpHash == 0 {
		return fmt.Errorf("register_op %s refused: %s", name, resp.Error)
	}
	return nil
}

func (c *jsonClient) roundTrip(req []byte) ([]byte, error) {
	if _, err := c.conn.Write(req); err != nil {
		return nil, err
	}
	c.line = c.line[:0]
	for {
		chunk, err := c.r.ReadSlice('\n')
		c.line = append(c.line, chunk...)
		if err == nil {
			return c.line, nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, err
		}
		if len(c.line) > maxFrame {
			return nil, fmt.Errorf("response line over %d bytes", maxFrame)
		}
	}
}

func (c *jsonClient) call(it *item, tc traceCtx) ([]int64, error) {
	c.id++
	s := tc.begin("json.encode")
	b := append(c.buf[:0], `{"id":`...)
	b = strconv.AppendUint(b, c.id, 10)
	b = append(b, `,"op":"`...)
	b = append(b, it.op...)
	b = append(b, `","kind":"`...)
	b = append(b, it.kind...)
	b = append(b, `","dir":"`...)
	b = append(b, it.dir...)
	b = append(b, `","data":[`...)
	for i, v := range it.data {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	c.buf = append(b, "]}\n"...)
	tc.end(s)
	s = tc.begin("wire.roundtrip")
	line, err := c.roundTrip(c.buf)
	tc.end(s)
	if err != nil {
		return nil, err
	}
	s = tc.begin("json.decode")
	c.res, err = parseJSONResult(line, c.id, c.res[:0])
	tc.end(s)
	return c.res, err
}

func (c *jsonClient) release([]int64) {}
func (c *jsonClient) close()          { c.conn.Close() }

// parseJSONResult decodes {"id":N,"result":[...]} into dst, falling back
// to encoding/json for anything else (error responses).
func parseJSONResult(line []byte, id uint64, dst []int64) ([]int64, error) {
	pre := []byte(`{"id":` + strconv.FormatUint(id, 10) + `,"result":[`)
	if !bytes.HasPrefix(line, pre) {
		var resp struct {
			ID    uint64 `json:"id"`
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(line, &resp); err != nil {
			return nil, fmt.Errorf("undecodable response: %w", err)
		}
		if resp.ID != id {
			return nil, fmt.Errorf("response id %d, want %d", resp.ID, id)
		}
		return nil, fmt.Errorf("%s: %s", resp.Code, resp.Error)
	}
	rest := line[len(pre):]
	for {
		end := bytes.IndexAny(rest, ",]")
		if end < 0 {
			return nil, errors.New("unterminated result array")
		}
		v, ok := parseInt(rest[:end])
		if !ok {
			return nil, fmt.Errorf("bad result element %q", rest[:end])
		}
		dst = append(dst, v)
		if rest[end] == ']' {
			return dst, nil
		}
		rest = rest[end+1:]
	}
}

// inprocCaller submits straight to an in-process serve.Server.
type inprocCaller struct{ srv *serve.Server }

func (c inprocCaller) call(it *item, tc traceCtx) ([]int64, error) {
	s := tc.begin("serve.submit")
	defer tc.end(s)
	return c.srv.SubmitCtx(context.Background(), it.spec, it.data)
}

func (inprocCaller) release(res []int64) { arena.PutInt64s(res) }
func (inprocCaller) close()              {}

// coordCaller calls an in-process cluster coordinator under its own tenant.
type coordCaller struct {
	coord  *cluster.Coordinator
	tenant string
}

func (c coordCaller) call(it *item, tc traceCtx) ([]int64, error) {
	s := tc.begin("cluster.scan")
	defer tc.end(s)
	return c.coord.Scan(context.Background(), it.spec, it.data, c.tenant)
}

func (coordCaller) release(res []int64) { arena.PutInt64s(res) }
func (coordCaller) close()              {}

// parseInt parses a decimal int64 without allocating.
func parseInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var u uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	if neg {
		return -int64(u), u <= 1<<63
	}
	return int64(u), u <= math.MaxInt64
}
