package nf

import (
	"testing"

	"nfp/internal/packet"
)

// TestVPNProcessAllocFree pins the north-south hot path's allocation
// behavior: Process seals and Decap opens in place, in the frame's own
// buffer, so neither allocates — over a short frame, a full 1500 B one
// and the largest frame that still takes the AH header and the tag.
func TestVPNProcessAllocFree(t *testing.T) {
	v, err := NewVPN(nil)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*packet.Packet
	var origs [][]byte
	for _, n := range []int{40, 1446, vpnMaxPayload} {
		p := vpnGoldenFrame(n)
		frames, origs = append(frames, p), append(origs, append([]byte(nil), p.Bytes()...))
	}
	i := 0
	encap := func() *packet.Packet {
		p, o := frames[i%len(frames)], origs[i%len(frames)]
		i++
		copy(p.Buffer(), o)
		p.SetLen(len(o))
		p.Invalidate()
		if v.Process(p) != Pass || !p.HasAH() {
			t.Fatalf("frame of %d B not encapsulated", len(o))
		}
		return p
	}
	if a := testing.AllocsPerRun(300, func() { encap() }); a != 0 {
		t.Errorf("Process: %v allocs per packet, want 0", a)
	}
	if a := testing.AllocsPerRun(300, func() {
		if err := v.Decap(encap()); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Process then Decap: %v allocs per packet, want 0", a)
	}
}
