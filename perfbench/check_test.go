package main

import (
	"bytes"
	"testing"
	"time"

	"shrimp/internal/harness"
)

// TestCheckerRejectsOneByteChange builds the exact answers of a small
// what-if session from direct harness and twin calls, then checks that
// the checker accepts them and rejects a stream with any one byte
// changed.
func TestCheckerRejectsOneByteChange(t *testing.T) {
	s := genSessions(3, 1)[0]
	s.Job = s.Job[:1]
	k := newChecker()
	if err := k.prepare([]session{s}); err != nil {
		t.Fatal(err)
	}
	good := sessionResult{body: append([]byte(nil), k.stream[0]...)}
	for _, c := range s.Grid {
		ns, err := k.twin.PredictCell(c)
		if err != nil {
			t.Fatal(err)
		}
		good.twinNs = append(good.twinNs, int64(ns))
	}
	if why := k.verify(0, s, good); why != "" {
		t.Fatalf("exact answers rejected: %s", why)
	}
	for _, i := range []int{0, len(good.body) / 2, len(good.body) - 1} {
		bad := good
		bad.body = bytes.Clone(good.body)
		bad.body[i] ^= 1
		if k.verify(0, s, bad) == "" {
			t.Errorf("stream with byte %d changed accepted", i)
		}
	}
	bad := good
	bad.twinNs = append([]int64(nil), good.twinNs...)
	bad.twinNs[0]++
	if k.verify(0, s, bad) == "" {
		t.Error("wrong twin answer accepted")
	}
}

// TestExpectedStreamFormat pins the row shape of a cell job's stream,
// which docs/shrimpd.md specifies.
func TestExpectedStreamFormat(t *testing.T) {
	b, err := expectedStream([]harness.CellSpec{{App: "radix-vmmc", Nodes: 2}}, []harness.Result{{Elapsed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte(`{"index":0,"cell":{"app":"radix-vmmc","nodes":2,"knobs":{}},"result":{"Elapsed":7,`)) ||
		!bytes.HasSuffix(b, []byte("}\n")) {
		t.Errorf("unexpected stream %s", b)
	}
}

func TestLoadCheckCountsMismatchAsFailed(t *testing.T) {
	g := &loadGrid{}
	good := loadPass{gen: make([]time.Duration, 20), digest: pinned.LoadOpenDigest, counts: pinned.LoadOpenCounts}
	out := newOutcome()
	g.check(out, good)
	if out.attempted != 20 || out.failed != 0 {
		t.Fatalf("pinned pass: attempted %d failed %d", out.attempted, out.failed)
	}
	bad := good
	bad.digest = "0" + good.digest[1:]
	if bad.digest == good.digest {
		bad.digest = "1" + good.digest[1:]
	}
	g.check(out, bad)
	if out.failed != 20 {
		t.Errorf("digest mismatch failed %d cells, want 20", out.failed)
	}
	bad = good
	bad.counts = map[string]int64{}
	for k, v := range good.counts {
		bad.counts[k] = v
	}
	bad.counts["workload.requests"]++
	g.check(out, bad)
	if out.failed != 40 {
		t.Errorf("count mismatch failed %d cells in all, want 40", out.failed)
	}
}
