package main

import "testing"

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 40, End: 45}}, 85},
		{"overlapping", []span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 25, End: 35}}, 60},
		{"identical", []span{{Start: 10, End: 30}, {Start: 10, End: 30}}, 80},
		{"touching", []span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 80},
		{"clipped at both ends", []span{{Start: -5, End: 5}, {Start: 90, End: 120}}, 85},
		{"outside", []span{{Start: 100, End: 150}, {Start: -50, End: 0}}, 100},
		{"covering", []span{{Start: -1, End: 101}, {Start: 30, End: 40}}, 0},
		{"mixed", []span{{Start: 60, End: 70}, {Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 90, End: 120}, {Start: -5, End: 5}}, 35},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanIndexSelfTime(t *testing.T) {
	tr := newTracer()
	tr.add(span{ID: 1, Req: 1, Name: "client.request", Start: 0, End: 100})
	tr.add(span{ID: 2, Parent: 1, Req: 1, Name: "fleet.stream", Start: 10, End: 60})
	tr.add(span{ID: 3, Parent: 1, Req: 1, Name: "fleet.stream", Start: 40, End: 80})
	ix := indexSpans(tr.snapshot())
	if got := ix.selfUs("client.request"); len(got) != 1 || got[0] != 0.03 {
		t.Fatalf("client.request self µs %v, want [0.03]", got)
	}
	if got := ix.durationsUs("fleet.stream"); len(got) != 2 {
		t.Fatalf("fleet.stream durations %v", got)
	}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *tracer
	called := false
	if err := tr.record("x", 0, 0, func() error { called = true; return nil }); err != nil || !called {
		t.Fatal("nil tracer must still run the call")
	}
	tr.add(span{})
	if tr.id() != 0 || tr.now() != 0 {
		t.Fatal("nil tracer must not allocate IDs or read the clock")
	}
}
