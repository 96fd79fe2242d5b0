package main

import (
	"testing"

	"nfp/internal/packet"
)

// tupleOf recovers the flow of a build spec.
func tupleOf(s packet.BuildSpec) tuple {
	return tuple{s.SrcIP.As4(), s.DstIP.As4(), s.SrcPort, s.DstPort}
}

func stream(w *workload, seed int64, n int) []packet.BuildSpec {
	cur := newTraffic(w, seed).cursor()
	out := make([]packet.BuildSpec, n)
	for i := range out {
		out[i] = cur.next()
	}
	return out
}

func sameSpec(a, b packet.BuildSpec) bool { return tupleOf(a) == tupleOf(b) && a.Size == b.Size }

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range []string{"fig13_dcmix", "stateful_newflows", "fwd64_reconfig"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		n := w.flows + 5000 // past the warm-up prefix, into the steady state
		a, b, c := stream(w, 7, n), stream(w, 7, n), stream(w, 8, n)
		differs := 0
		for i := range a {
			if !sameSpec(a[i], b[i]) {
				t.Fatalf("%s: seed 7 gave two different specs at position %d", name, i)
			}
			if !sameSpec(a[i], c[i]) {
				differs++
			}
		}
		if differs < n/2 {
			t.Errorf("%s: seeds 7 and 8 differ at only %d of %d positions", name, differs, n)
		}
	}
}

func TestEstablishedFlowsAreDistinct(t *testing.T) {
	w, _ := workloadByName("stateful_manyflow")
	tr := newTraffic(w, 3)
	seen := make(map[tuple]bool, len(tr.flows))
	for _, f := range tr.flows {
		if seen[f] {
			t.Fatalf("flow %v generated twice", f)
		}
		seen[f] = true
	}
	// The visit order is a permutation: one lap touches every flow once.
	visits := make([]int, len(tr.flows))
	for _, i := range tr.order {
		visits[i]++
	}
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("flow %d visited %d times per lap, want 1", i, v)
		}
	}
}

func TestNewFlowsNeverRepeat(t *testing.T) {
	w, _ := workloadByName("stateful_newflows")
	tr := newTraffic(w, 5)
	established := make(map[tuple]bool, len(tr.flows))
	for _, f := range tr.flows {
		established[f] = true
	}
	cur := tr.cursor()
	for i := 0; i < len(tr.flows); i++ {
		if s := cur.next(); !established[tupleOf(s)] {
			t.Fatalf("warm-up position %d is not an established flow", i)
		}
	}
	const n = 400000
	fresh := make(map[tuple]bool, n/4)
	for i := 1; i <= n; i++ {
		s := cur.next()
		isNew := !established[tupleOf(s)]
		if want := i%w.newEvery == 0; isNew != want {
			t.Fatalf("steady-state packet %d: new flow = %v, want %v", i, isNew, want)
		}
		if isNew {
			if fresh[tupleOf(s)] {
				t.Fatalf("never-seen tuple %v repeated at packet %d", tupleOf(s), i)
			}
			fresh[tupleOf(s)] = true
		}
	}
	if len(fresh) != n/w.newEvery {
		t.Errorf("%d new flows in %d packets, want %d", len(fresh), n, n/w.newEvery)
	}
	// The counter-to-tuple map is injective across the address/port
	// boundary too.
	if tr.fresh(1<<24) == tr.fresh(0) {
		t.Error("fresh tuples 0 and 2^24 collide")
	}
}

func TestSizeMix(t *testing.T) {
	w, _ := workloadByName("fig13_dcmix")
	sizes := map[int]int{}
	for _, s := range stream(w, 1, 20000) {
		sizes[s.Size]++
	}
	if len(sizes) < 3 || sizes[64] == 0 || sizes[1500] == 0 {
		t.Errorf("datacenter mix drew sizes %v, want 64 and 1500 among several", sizes)
	}
	w, _ = workloadByName("fwd64")
	for _, s := range stream(w, 1, 200) {
		if s.Size != 64 {
			t.Fatalf("fwd64 drew a %d-byte frame", s.Size)
		}
	}
}
