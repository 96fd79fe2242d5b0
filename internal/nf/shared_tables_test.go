package nf

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// TestIDSSharedAutomaton holds the IDSes to one signature automaton per
// signature count: instances built on many goroutines at once, inline
// and passive, share their count's matcher and scan with it
// concurrently, while each keeps its own alerts and counters and gives
// the verdicts of an IDS with an automaton of its own; a restarted
// instance from the registry, ids or nids, reuses the matcher, and
// building one after the first costs no more than the instance itself.
func TestIDSSharedAutomaton(t *testing.T) {
	counts := []int{DefaultSignatureCount, 7}
	const workers = 8
	idss := make([][workers]*IDS, len(counts))
	var wg sync.WaitGroup
	for ci, n := range counts {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(ci, w, n int) {
				defer wg.Done()
				inline := w%2 == 0
				d, err := NewIDS(n, inline)
				if err != nil {
					t.Error(err)
					return
				}
				sigs := make([][]byte, n)
				for i := range sigs {
					sigs[i] = []byte(fmt.Sprintf("SIG-%04d-ATTACK", i))
				}
				ref := NewIDSFromSignatures(sigs, inline)
				// Instance w sees w+1 bursts: a clean payload, its own
				// signature w and signature 50, each a hit only where
				// the count holds it.
				payloads := []string{"clean traffic", fmt.Sprintf("xx SIG-%04d-ATTACK xx", w), "SIG-0050-ATTACK"}
				for b := 0; b <= w; b++ {
					for i, pl := range payloads {
						pkt := tcpPacket("10.0.0.1", "10.0.0.2", 1000, 80, []byte(pl))
						pkt.Meta.PID = uint64(b*len(payloads) + i)
						refPkt := tcpPacket("10.0.0.1", "10.0.0.2", 1000, 80, []byte(pl))
						refPkt.Meta.PID = pkt.Meta.PID
						if got, want := d.Process(pkt), ref.Process(refPkt); got != want {
							t.Errorf("n=%d instance %d burst %d %q: verdict %v, unshared %v", n, w, b, pl, got, want)
						}
					}
				}
				hitsPerBurst := 0
				for _, sig := range []int{w, 50} {
					if sig < n {
						hitsPerBurst++
					}
				}
				if want := uint64(hitsPerBurst * (w + 1)); d.Hits() != want || d.Scanned() != uint64(len(payloads)*(w+1)) {
					t.Errorf("n=%d instance %d: hits/scanned = %d/%d, want %d/%d", n, w, d.Hits(), d.Scanned(), want, len(payloads)*(w+1))
				}
				if !reflect.DeepEqual(d.Alerts(), ref.Alerts()) {
					t.Errorf("n=%d instance %d: alerts %v, unshared %v", n, w, d.Alerts(), ref.Alerts())
				}
				idss[ci][w] = d
			}(ci, w, n)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for ci, n := range counts {
		shared := idss[ci][0].matcher
		for w, d := range idss[ci] {
			if d.matcher != shared {
				t.Errorf("n=%d: instance %d built its own automaton", n, w)
			}
		}
		if ci > 0 && shared == idss[ci-1][0].matcher {
			t.Errorf("signature counts %d and %d share an automaton", counts[ci-1], n)
		}
	}

	r := NewRegistry()
	for _, name := range []string{nfa.NFIDS, nfa.NFIDS, nfa.NFNIDS} {
		x, err := r.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if x.(*IDS).matcher != idss[0][0].matcher {
			t.Errorf("registry %s instance built its own automaton", name)
		}
	}

	if a := testing.AllocsPerRun(100, func() {
		if _, err := NewIDS(DefaultSignatureCount, true); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("NewIDS after the first: %.1f allocs, want <= 1", a)
	}
}

// TestFirewallSharedIndex holds the firewalls to one rule slice and
// index per rule count: instances built on many goroutines at once
// share their count's ACL and look up in it concurrently, while each
// keeps its own pass/drop counters and gives the verdicts of a firewall
// with an index of its own; a restarted instance from the registry
// reuses the ACL, and building one after the first costs no more than
// the instance itself.
func TestFirewallSharedIndex(t *testing.T) {
	counts := []int{DefaultACLSize, 7}
	// Sources inside the /24s of rules 3 (in both counts) and 60 (only
	// in the larger), and one no rule covers.
	acl := syntheticACL(DefaultACLSize)
	srcs := []string{acl[3].Src.Addr().Next().String(), acl[60].Src.Addr().Next().String(), "10.0.0.1"}
	const workers = 8
	fws := make([][workers]*Firewall, len(counts))
	var wg sync.WaitGroup
	for ci, n := range counts {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(ci, w, n int) {
				defer wg.Done()
				fw, err := NewFirewall(n)
				if err != nil {
					t.Error(err)
					return
				}
				ref := NewFirewallFromRules(syntheticACL(n), Allow)
				// Instance w sees w+1 bursts of the three sources.
				pkts, refPkts := make([]*packet.Packet, len(srcs)), make([]*packet.Packet, len(srcs))
				got, want := make([]Verdict, len(srcs)), make([]Verdict, len(srcs))
				for b := 0; b <= w; b++ {
					for i, src := range srcs {
						pkts[i] = tcpPacket(src, "10.0.0.2", uint16(1000+w), 80, nil)
						refPkts[i] = tcpPacket(src, "10.0.0.2", uint16(1000+w), 80, nil)
					}
					fw.ProcessBatch(pkts, got)
					ref.ProcessBatch(refPkts, want)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("n=%d instance %d burst %d: verdicts %v, unshared %v", n, w, b, got, want)
					}
				}
				passed, dropped := fw.Stats()
				refPassed, refDropped := ref.Stats()
				if passed != refPassed || dropped != refDropped || passed+dropped != uint64(len(srcs)*(w+1)) {
					t.Errorf("n=%d instance %d: passed/dropped = %d/%d, unshared %d/%d", n, w, passed, dropped, refPassed, refDropped)
				}
				fws[ci][w] = fw
			}(ci, w, n)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for ci, n := range counts {
		shared := fws[ci][0]
		for w, fw := range fws[ci] {
			if fw.index != shared.index || &fw.rules[0] != &shared.rules[0] {
				t.Errorf("n=%d: instance %d built its own ACL", n, w)
			}
		}
		if ci > 0 && shared.index == fws[ci-1][0].index {
			t.Errorf("rule counts %d and %d share an index", counts[ci-1], n)
		}
	}
	if _, dropped := fws[0][0].Stats(); dropped != 2 {
		t.Errorf("%d-rule firewall dropped %d of the first burst, want 2", DefaultACLSize, dropped)
	}

	r := NewRegistry()
	for i := 0; i < 2; i++ {
		x, err := r.New(nfa.NFFirewall)
		if err != nil {
			t.Fatal(err)
		}
		if x.(*Firewall).index != fws[0][0].index {
			t.Errorf("registry instance %d built its own index", i)
		}
	}

	if a := testing.AllocsPerRun(100, func() {
		if _, err := NewFirewall(DefaultACLSize); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("NewFirewall after the first: %.1f allocs, want <= 1", a)
	}
}
