package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"shrimp/internal/sim"
)

// Trace artifact format (canonical text, one token layout — encoding
// the same Trace always yields the same bytes, so artifacts diff and
// hash cleanly):
//
//	shrimp-workload-trace v1
//	service <rpc|socket|dfs>
//	nodes <n>
//	class <name> <streams> <resp_bytes>      (one line per class)
//	requests <count>
//	<at_ns> <stream> <class> <target> <size> <tag>   (one line per request)
//	end
//
// Request lines appear in (At, Stream) order, the same order Generate
// returns, so encode(decode(encode(t))) == encode(t) byte for byte.

const traceMagic = "shrimp-workload-trace v1"

// Encode writes the canonical artifact.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\n", traceMagic)
	fmt.Fprintf(bw, "service %s\n", t.Service)
	fmt.Fprintf(bw, "nodes %d\n", t.Nodes)
	for _, c := range t.Classes {
		fmt.Fprintf(bw, "class %s %d %d\n", c.Name, c.Streams, c.RespBytes)
	}
	fmt.Fprintf(bw, "requests %d\n", len(t.Reqs))
	for _, r := range t.Reqs {
		fmt.Fprintf(bw, "%d %d %d %d %d %d\n",
			int64(r.At), r.Stream, r.Class, r.Target, r.Size, r.Tag)
	}
	fmt.Fprintf(bw, "end\n")
	return bw.Flush()
}

// Decode reads an artifact written by Encode, validating structure as
// it goes. The returned trace replays byte-identically to the run that
// recorded it.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	line := 0
	next := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", fmt.Errorf("workload: trace truncated at line %d", line)
		}
		line++
		return sc.Text(), nil
	}

	hdr, err := next()
	if err != nil {
		return nil, err
	}
	if hdr != traceMagic {
		return nil, fmt.Errorf("workload: not a trace artifact (got %q, want %q)", hdr, traceMagic)
	}
	t := &Trace{}

	svcLine, err := next()
	if err != nil {
		return nil, err
	}
	name, ok := strings.CutPrefix(svcLine, "service ")
	if !ok {
		return nil, fmt.Errorf("workload: line %d: want \"service ...\", got %q", line, svcLine)
	}
	if t.Service, err = ParseService(name); err != nil {
		return nil, err
	}

	nodesLine, err := next()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(nodesLine, "nodes %d", &t.Nodes); err != nil {
		return nil, fmt.Errorf("workload: line %d: want \"nodes N\", got %q", line, nodesLine)
	}
	if t.Nodes < 1 {
		return nil, fmt.Errorf("workload: line %d: node count %d < 1", line, t.Nodes)
	}

	var nreq int
	for {
		l, err := next()
		if err != nil {
			return nil, err
		}
		if rest, ok := strings.CutPrefix(l, "class "); ok {
			f := strings.Fields(rest)
			if len(f) != 3 {
				return nil, fmt.Errorf("workload: line %d: malformed class line %q", line, l)
			}
			streams, err1 := strconv.Atoi(f[1])
			resp, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil || streams < 1 {
				return nil, fmt.Errorf("workload: line %d: malformed class line %q", line, l)
			}
			t.Classes = append(t.Classes, ClassInfo{Name: f[0], Streams: streams, RespBytes: resp})
			continue
		}
		if _, err := fmt.Sscanf(l, "requests %d", &nreq); err != nil {
			return nil, fmt.Errorf("workload: line %d: want \"class ...\" or \"requests N\", got %q", line, l)
		}
		break
	}
	if len(t.Classes) == 0 {
		return nil, fmt.Errorf("workload: trace declares no classes")
	}
	if nreq < 0 {
		return nil, fmt.Errorf("workload: negative request count %d", nreq)
	}

	streams := t.Streams()
	var prev Request
	for i := 0; i < nreq; i++ {
		l, err := next()
		if err != nil {
			return nil, err
		}
		f := strings.Fields(l)
		if len(f) != 6 {
			return nil, fmt.Errorf("workload: line %d: malformed request %q", line, l)
		}
		at, e1 := strconv.ParseInt(f[0], 10, 64)
		stream, e2 := strconv.ParseInt(f[1], 10, 32)
		class, e3 := strconv.ParseInt(f[2], 10, 32)
		target, e4 := strconv.ParseInt(f[3], 10, 32)
		size, e5 := strconv.ParseInt(f[4], 10, 32)
		tag, e6 := strconv.ParseUint(f[5], 10, 64)
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil || e5 != nil || e6 != nil {
			return nil, fmt.Errorf("workload: line %d: malformed request %q", line, l)
		}
		rq := Request{At: sim.Time(at), Stream: int32(stream), Class: int32(class),
			Target: int32(target), Size: int32(size), Tag: tag}
		switch {
		case rq.Stream < 0 || int(rq.Stream) >= streams:
			return nil, fmt.Errorf("workload: line %d: stream %d out of range [0,%d)", line, rq.Stream, streams)
		case rq.Class < 0 || int(rq.Class) >= len(t.Classes):
			return nil, fmt.Errorf("workload: line %d: class %d out of range", line, rq.Class)
		case rq.Target < 0 || int(rq.Target) >= t.Nodes:
			return nil, fmt.Errorf("workload: line %d: target %d out of range", line, rq.Target)
		case rq.Size < 1 || rq.Size > maxRequestBytes:
			return nil, fmt.Errorf("workload: line %d: size %d out of range", line, rq.Size)
		}
		if i > 0 && (rq.At < prev.At || (rq.At == prev.At && rq.Stream <= prev.Stream)) {
			return nil, fmt.Errorf("workload: line %d: requests out of (arrival, stream) order", line)
		}
		prev = rq
		t.Reqs = append(t.Reqs, rq)
	}

	endLine, err := next()
	if err != nil {
		return nil, err
	}
	if endLine != "end" {
		return nil, fmt.Errorf("workload: line %d: want \"end\", got %q", line, endLine)
	}
	return t, nil
}
