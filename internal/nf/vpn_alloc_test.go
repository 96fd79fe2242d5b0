package nf

import (
	"fmt"
	"runtime"
	"testing"

	"nfp/internal/packet"
)

// TestVPNProcessAllocFree pins the north-south hot path's allocation
// behavior: encapsulation must reuse the instance's HMAC and CTR
// scratch instead of allocating per packet. The budget is deliberately
// loose (one alloc per ~10 packets) to absorb runtime noise while
// still failing hard if a per-packet allocation creeps back in — the
// pre-fix cost was ~6 allocations per packet. Every other frame is a
// full 1500 B one, whose payload takes several keystream chunks.
func TestVPNProcessAllocFree(t *testing.T) {
	v, err := NewVPN(nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	inputs := make([]*packet.Packet, n)
	for i := range inputs {
		payload := []byte(fmt.Sprintf("payload %03d padding to exceed one AES block", i))
		if i%2 == 1 {
			payload = make([]byte, 1500-packet.EthHeaderLen-packet.IPv4HeaderLen-packet.TCPHeaderLen)
		}
		inputs[i] = tcpPacket("10.0.0.1", "10.100.0.1", uint16(2000+i), 80, payload)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range inputs {
		if verd := v.Process(p); verd != Pass {
			t.Fatalf("unexpected verdict %v", verd)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	if allocs > n/10 {
		t.Fatalf("VPN.Process allocated %d times over %d packets — per-packet allocation regressed", allocs, n)
	}
	for _, p := range inputs {
		if !p.HasAH() {
			t.Fatalf("packet not encapsulated")
		}
	}
}
