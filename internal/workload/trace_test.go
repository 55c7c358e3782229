package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"shrimp/internal/sim"
)

func rpcSpec(nodes int) *Spec {
	return &Spec{
		Service: RPC,
		Nodes:   nodes,
		Classes: []Class{
			{
				Name: "small", Streams: 3, Requests: 40,
				Interarrival: Dist{Kind: DistPoisson, Mean: float64(100 * sim.Microsecond)},
				Size:         Dist{Kind: DistUniform, Mean: 128, Shape: 0.5},
				RespBytes:    64,
			},
			{
				Name: "big", Streams: 1, Requests: 10,
				Interarrival: Dist{Kind: DistGamma, Mean: float64(400 * sim.Microsecond), Shape: 2},
				Size:         Dist{Kind: DistDet, Mean: 4096},
				RespBytes:    64,
			},
		},
	}
}

func dfsSpec(nodes int) *Spec {
	return &Spec{
		Service: DFS,
		Nodes:   nodes,
		Classes: []Class{{
			Name: "block", Streams: 4, Requests: 20,
			Interarrival: Dist{Kind: DistWeibull, Mean: float64(200 * sim.Microsecond), Shape: 0.7},
			Size:         Dist{Kind: DistDet, Mean: 2048},
		}},
		DFSFiles:         8,
		DFSBlocksPerFile: 16,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := rpcSpec(4)
	a, err := Generate(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := a.Encode(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("same (spec, seed) generated different traces")
	}
	c, err := Generate(spec, 43)
	if err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	if err := c.Encode(&cb); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ab.Bytes(), cb.Bytes()) {
		t.Fatal("different seeds generated identical traces")
	}
}

func TestGenerateShape(t *testing.T) {
	spec := rpcSpec(4)
	tr, err := Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tr.Reqs), 3*40+1*10; got != want {
		t.Fatalf("request count %d, want %d", got, want)
	}
	if got, want := tr.Streams(), 4; got != want {
		t.Fatalf("streams %d, want %d", got, want)
	}
	// Per-stream arrivals strictly increase; global order is (At, Stream).
	last := make(map[int32]sim.Time)
	for i, rq := range tr.Reqs {
		if prev, ok := last[rq.Stream]; ok && rq.At <= prev {
			t.Fatalf("stream %d: arrival %d not after %d", rq.Stream, rq.At, prev)
		}
		last[rq.Stream] = rq.At
		if i > 0 {
			p := tr.Reqs[i-1]
			if rq.At < p.At || (rq.At == p.At && rq.Stream <= p.Stream) {
				t.Fatalf("request %d out of (At, Stream) order", i)
			}
		}
		if rq.Size < 1 {
			t.Fatalf("request %d: size %d < 1", i, rq.Size)
		}
	}
	// Class assignment: streams 0-2 are "small", stream 3 is "big".
	if tr.ClassOf(0) != 0 || tr.ClassOf(2) != 0 || tr.ClassOf(3) != 1 {
		t.Fatal("stream to class mapping wrong")
	}
}

func TestGenerateDFSTargets(t *testing.T) {
	spec := dfsSpec(4)
	tr, err := Generate(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, rq := range tr.Reqs {
		file := int(rq.Tag >> 32)
		idx := int(rq.Tag & 0xFFFFFFFF)
		if file < 0 || file >= spec.DFSFiles || idx < 0 || idx >= spec.DFSBlocksPerFile {
			t.Fatalf("request %d: (file %d, idx %d) out of range", i, file, idx)
		}
		if int(rq.Target) != (file*7+idx)%spec.Nodes {
			t.Fatalf("request %d: target %d is not the block home", i, rq.Target)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	for _, spec := range []*Spec{rpcSpec(4), dfsSpec(4)} {
		tr, err := Generate(spec, 42)
		if err != nil {
			t.Fatal(err)
		}
		var first bytes.Buffer
		if err := tr.Encode(&first); err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", spec.Service, err)
		}
		var second bytes.Buffer
		if err := dec.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: encode/decode/encode not byte-identical", spec.Service)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	tr, err := Generate(rpcSpec(4), 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	lines := strings.Split(strings.TrimRight(good, "\n"), "\n")

	corrupt := map[string]string{
		"bad magic":   strings.Replace(good, traceMagic, "bogus v9", 1),
		"bad service": strings.Replace(good, "service rpc", "service carrier-pigeon", 1),
		"truncated":   strings.Join(lines[:len(lines)-2], "\n") + "\n",
		"missing end": strings.Join(lines[:len(lines)-1], "\n") + "\n",
	}
	// Patch a request line to reference a stream out of range.
	reqStart := 0
	for i, l := range lines {
		if strings.HasPrefix(l, "requests ") {
			reqStart = i + 1
			break
		}
	}
	f := strings.Fields(lines[reqStart])
	f[1] = "99"
	bad := append([]string{}, lines...)
	bad[reqStart] = strings.Join(f, " ")
	corrupt["stream range"] = strings.Join(bad, "\n") + "\n"
	// A machine with no nodes, and so no requests to target.
	var empty []string
	for _, l := range lines {
		if strings.HasPrefix(l, "requests ") {
			break
		}
		empty = append(empty, strings.Replace(l, "nodes 4", "nodes 0", 1))
	}
	corrupt["no nodes"] = strings.Join(append(empty, "requests 0", "end"), "\n") + "\n"
	// A machine past machine.MaxNodes, which no front end may build.
	corrupt["nodes 1025"] = strings.Replace(good, "nodes 4\n", "nodes 1025\n", 1)
	// A request count far past the lines that follow must fail as a
	// truncation, not size an allocation from the header.
	huge := append([]string{}, lines...)
	huge[reqStart-1] = "requests 1152921504606846976"
	corrupt["huge count"] = strings.Join(huge, "\n") + "\n"
	// Swap two request lines to break the canonical order.
	swapped := append([]string{}, lines...)
	swapped[reqStart], swapped[reqStart+1] = swapped[reqStart+1], swapped[reqStart]
	corrupt["reordered reqs"] = strings.Join(swapped, "\n") + "\n"

	for name, text := range corrupt {
		if _, err := Decode(strings.NewReader(text)); err == nil {
			t.Errorf("%s: Decode accepted corrupt artifact", name)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []*Spec{
		{Service: RPC, Nodes: 1, Classes: rpcSpec(4).Classes}, // rpc needs 2 nodes
		{Service: RPC, Nodes: 4},                              // no classes
		{Service: DFS, Nodes: 4, Classes: dfsSpec(4).Classes}, // missing DFS geometry
	}
	nonDet := dfsSpec(4)
	nonDet.Classes[0].Size = Dist{Kind: DistUniform, Mean: 2048, Shape: 0.5}
	bad = append(bad, nonDet)
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid spec", i)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the trace decoder. Decode must
// never panic, and any trace it accepts must re-encode to an artifact
// that decodes to an equal trace.
func FuzzDecode(f *testing.F) {
	for _, spec := range []*Spec{rpcSpec(4), dfsSpec(4)} {
		// Short seeds: the fuzzer minimizes each seed before mutating,
		// and a few requests per class already cover every line kind.
		for i := range spec.Classes {
			spec.Classes[i].Requests = 2
		}
		tr, err := Generate(spec, 42)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("re-encoded trace decodes differently:\nfirst  %+v\nsecond %+v", tr, again)
		}
	})
}
