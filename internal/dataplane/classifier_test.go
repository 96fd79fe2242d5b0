package dataplane

import (
	"net/netip"
	"testing"

	"nfp/internal/packet"
	"nfp/internal/telemetry"
)

// classifyOne resolves and stamps one packet's MID — a one-packet
// ClassifyBatch; ok is false when no rule matches and no default is set.
func classifyOne(c *Classifier, p *packet.Packet) (mid uint32, ok bool) {
	if c.ClassifyBatch([]*packet.Packet{p}) == 0 {
		return 0, false
	}
	return p.Meta.MID, true
}

// TestParseMatchCovers checks a match naming a prefix, a port and a
// protocol covers a flow only when all three agree.
func TestParseMatchCovers(t *testing.T) {
	m := Match{
		SrcPrefix: netip.MustParsePrefix("10.0.0.0/8"),
		DstPort:   443,
		Proto:     packet.ProtoTCP,
	}
	key := packet.FlowKey{
		Src: [4]byte{10, 9, 8, 7}, Dst: [4]byte{1, 1, 1, 1},
		SrcPort: 1234, DstPort: 443, Proto: packet.ProtoTCP,
	}
	if !m.Covers(key) {
		t.Errorf("match %+v should cover %+v", m, key)
	}
	key.Proto = packet.ProtoUDP
	if m.Covers(key) {
		t.Errorf("match %+v should not cover UDP", m)
	}
	key.Proto = packet.ProtoTCP
	key.Src = [4]byte{11, 9, 8, 7}
	if m.Covers(key) {
		t.Errorf("match %+v should not cover a source outside 10/8", m)
	}
}

// classPkt builds a standalone packet (no pool) from the given source
// address; 10/8 and 172.16/12 sources are matched by the rules the
// batch tests install, 192.168/16 stays unmatched.
func classPkt(src string, sport uint16) *packet.Packet {
	p := packet.New(make([]byte, 2048))
	packet.BuildInto(p, packet.BuildSpec{
		SrcIP:   netip.MustParseAddr(src),
		DstIP:   netip.MustParseAddr("10.100.0.1"),
		Proto:   packet.ProtoTCP,
		SrcPort: sport, DstPort: 80,
		TTL:     64,
		Payload: []byte("classify batch"),
	})
	return p
}

// batchClassifier installs two prefix rules (10/8 → MID 1,
// 172.16/12 → MID 2) and NO default, so 192.168/16 traffic is
// rejected, with counters bound to a private registry.
func batchClassifier() (*Classifier, *telemetry.Registry) {
	var c Classifier
	reg := telemetry.NewRegistry()
	c.bindTelemetry(reg)
	c.AddRule(Match{SrcPrefix: netip.MustParsePrefix("10.0.0.0/8")}, 1)
	c.AddRule(Match{SrcPrefix: netip.MustParsePrefix("172.16.0.0/12")}, 2)
	return &c, reg
}

// TestClassifyBatchInterleavedMIDs drives ClassifyBatch with MIDs
// interleaved and unmatched packets mixed mid-burst: the partition
// must be stable on both sides, every stamped MID correct, PIDs
// assigned in accepted order, the per-MID run-length dispatch counters
// must total exactly the per-MID packet counts, and the rejected
// packets must come back as the same objects — no aliasing, no
// clobbering — still holding their original bytes.
func TestClassifyBatchInterleavedMIDs(t *testing.T) {
	c, reg := batchClassifier()

	// mid-burst mix: 1,2,reject,1,reject,2,1,reject,2,1 — every MID run
	// has length 1 or 2 and rejects land at the front, middle and end
	// positions of runs.
	srcs := []struct {
		addr string
		mid  uint32 // 0 = unmatched
	}{
		{"10.0.0.1", 1}, {"172.16.0.1", 2}, {"192.168.0.1", 0},
		{"10.0.0.2", 1}, {"192.168.0.2", 0}, {"172.16.0.2", 2},
		{"10.0.0.3", 1}, {"192.168.0.3", 0}, {"172.16.0.3", 2},
		{"10.0.0.4", 1},
	}
	pkts := make([]*packet.Packet, len(srcs))
	orig := make(map[*packet.Packet]int, len(srcs)) // identity → original index
	var wantAccept, wantReject []*packet.Packet
	wantPerMID := map[uint32]uint64{}
	for i, s := range srcs {
		pkts[i] = classPkt(s.addr, uint16(1000+i))
		orig[pkts[i]] = i
		if s.mid == 0 {
			wantReject = append(wantReject, pkts[i])
		} else {
			wantAccept = append(wantAccept, pkts[i])
			wantPerMID[s.mid]++
		}
	}

	n := c.ClassifyBatch(pkts)
	if n != len(wantAccept) {
		t.Fatalf("ClassifyBatch = %d, want %d accepted", n, len(wantAccept))
	}
	// Stable partition, by object identity, on both sides.
	for i, p := range pkts[:n] {
		if p != wantAccept[i] {
			t.Fatalf("accepted[%d] is packet %d, want %d (stable order broken)",
				i, orig[p], orig[wantAccept[i]])
		}
	}
	for i, p := range pkts[n:] {
		if p != wantReject[i] {
			t.Fatalf("rejected[%d] is packet %d, want %d (stable order broken)",
				i, orig[p], orig[wantReject[i]])
		}
	}
	// Stamped metadata: correct MID per packet, PIDs strictly
	// sequential in accepted order (identical to per-packet Classify).
	var lastPID uint64
	for i, p := range pkts[:n] {
		if want := srcs[orig[p]].mid; p.Meta.MID != want {
			t.Errorf("accepted[%d]: MID = %d, want %d", i, p.Meta.MID, want)
		}
		if p.Meta.Version != 1 {
			t.Errorf("accepted[%d]: version = %d, want 1", i, p.Meta.Version)
		}
		if i > 0 && p.Meta.PID != lastPID+1 {
			t.Errorf("accepted[%d]: PID %d does not follow %d", i, p.Meta.PID, lastPID)
		}
		lastPID = p.Meta.PID
	}
	// Rejected packets keep their bytes: not stamped, not clobbered by
	// the in-place rotation.
	for i, p := range pkts[n:] {
		if p.Meta.MID != 0 || p.Meta.PID != 0 {
			t.Errorf("rejected[%d] was stamped: %+v", i, p.Meta)
		}
		if got := srcs[orig[p]].addr; p.SrcIP().String() != got {
			t.Errorf("rejected[%d] bytes clobbered: src %v, want %s", i, p.SrcIP(), got)
		}
	}
	// No aliasing anywhere: every original packet appears exactly once.
	seen := map[*packet.Packet]bool{}
	for _, p := range pkts {
		if seen[p] {
			t.Fatalf("packet %d aliased in partitioned slice", orig[p])
		}
		seen[p] = true
	}
	if len(seen) != len(srcs) {
		t.Fatalf("partitioned slice holds %d distinct packets, want %d", len(seen), len(srcs))
	}

	// Counter totals match the per-packet path exactly: run-length
	// dispatch bumps must sum to the per-MID counts.
	snap := reg.Snapshot()
	for mid, want := range wantPerMID {
		got := snap.CounterValue("nfp_classifier_dispatch_total",
			telemetry.L("mid", map[uint32]string{1: "1", 2: "2"}[mid]))
		if got != want {
			t.Errorf("dispatch counter for MID %d = %d, want %d", mid, got, want)
		}
	}
	if got := snap.CounterValue("nfp_classifier_rule_matches_total"); got != uint64(len(wantAccept)) {
		t.Errorf("rule matches = %d, want %d", got, len(wantAccept))
	}
	if got := snap.CounterValue("nfp_classifier_unmatched_total"); got != uint64(len(wantReject)) {
		t.Errorf("unmatched = %d, want %d", got, len(wantReject))
	}
}

// TestClassifyBatchAllocFree pins the satellite claim: a ClassifyBatch
// sweep — including unmatched packets mid-burst, the path that used to
// grow a fresh rejects slice — performs zero heap allocations per
// burst once the per-MID counters exist.
func TestClassifyBatchAllocFree(t *testing.T) {
	c, _ := batchClassifier()
	pkts := make([]*packet.Packet, 8)
	fill := func() {
		for i := range pkts {
			src := []string{"10.0.0.9", "192.168.9.9", "172.16.9.9", "192.168.9.8"}[i%4]
			pkts[i] = classPkt(src, uint16(2000+i))
		}
	}
	// Warm-up: materializes the copy-on-write per-MID counter map.
	fill()
	c.ClassifyBatch(pkts)

	allocs := testing.AllocsPerRun(100, func() {
		fill() // packet construction is excluded below via baseline
		c.ClassifyBatch(pkts)
	})
	baseline := testing.AllocsPerRun(100, func() {
		fill()
	})
	if per := allocs - baseline; per > 0 {
		t.Errorf("ClassifyBatch allocates %.1f objects per burst, want 0", per)
	}
}

// BenchmarkClassifyBatch classifies 32-packet bursts as an injector
// does — attach a frame, parse, probe the microflow cache, stamp — behind
// one destination-port rule, as fwd64 runs. warm: 64 flows, every probe
// a hit. cold: 2^18 flows visited in turn, against a cache the warm-up
// lap has grown to fcMaxSlots, so every probe misses and asks the rule
// index, and one in 32 displaces an entry. ns/op is per packet; a burst
// must not allocate.
func BenchmarkClassifyBatch(b *testing.B) {
	for _, bc := range []struct {
		name  string
		flows int
	}{{"warm", 64}, {"cold", 1 << 18}} {
		b.Run(bc.name, func(b *testing.B) {
			const frameLen = 64
			frames := make([]byte, bc.flows*frameLen)
			frame := func(i int) []byte { return frames[i*frameLen : (i+1)*frameLen : (i+1)*frameLen] }
			for i := range bc.flows {
				packet.BuildInto(packet.New(frame(i)), packet.BuildSpec{
					SrcIP:   netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
					DstIP:   netip.MustParseAddr("10.100.0.1"),
					SrcPort: 1024, DstPort: 80,
					Size: frameLen,
				})
			}
			var c Classifier
			c.bindTelemetry(telemetry.NewRegistry())
			c.bindFlowCache(1, flowCacheSlots)
			c.AddRule(Match{DstPort: 80}, 1)

			var burst [32]*packet.Packet
			for i := range burst {
				burst[i] = packet.New(nil)
			}
			next := 0
			classify := func() {
				for _, p := range burst {
					p.Attach(frame(next), frameLen, nil)
					if next++; next == bc.flows {
						next = 0
					}
				}
				if n := c.ClassifyBatch(burst[:]); n != len(burst) {
					b.Fatalf("classified %d of %d", n, len(burst))
				}
			}
			for range bc.flows / len(burst) {
				classify()
			}
			if a := testing.AllocsPerRun(100, classify); a != 0 {
				b.Fatalf("%v allocs per burst, want 0", a)
			}
			hits, misses := c.cacheHits.Value(), c.cacheMiss.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(burst) {
				classify()
			}
			b.StopTimer()
			h, m := c.cacheHits.Value()-hits, c.cacheMiss.Value()-misses
			b.ReportMetric(float64(h)/float64(h+m), "hit-ratio")
		})
	}
}
