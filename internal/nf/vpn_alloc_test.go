package nf

import (
	"testing"

	"nfp/internal/mempool"
	"nfp/internal/packet"
)

// TestVPNProcessAllocFree pins the north-south hot path's allocation
// behavior: Process seals and Decap opens in place, in the frame's own
// buffer, so neither allocates — over a short frame, a full 1500 B one
// and the largest frame that still takes the AH header and the tag, in
// standalone buffers and in pool frames, where the header moves the
// bytes in front of it into the headroom.
func TestVPNProcessAllocFree(t *testing.T) {
	t.Run("standalone", func(t *testing.T) { vpnAllocFree(t, nil) })
	t.Run("pool", func(t *testing.T) { vpnAllocFree(t, mempool.New(3, vpnBufSize)) })
}

func vpnAllocFree(t *testing.T, pool *mempool.Pool) {
	v, err := NewVPN(nil)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*packet.Packet
	var origs [][]byte
	largest := vpnMaxPayload
	if pool != nil {
		largest -= mempool.Headroom // a pool frame starts that far into its slot
	}
	for _, n := range []int{40, 1446, largest} {
		p := vpnGoldenFrame(n)
		frames, origs = append(frames, p), append(origs, append([]byte(nil), p.Bytes()...))
		if pool != nil {
			frames[len(frames)-1] = pool.Get()
		}
	}
	i := 0
	encap := func() *packet.Packet {
		p, o := frames[i%len(frames)], origs[i%len(frames)]
		i++
		if pool != nil {
			p.Reset(vpnBufSize - mempool.Headroom)
		}
		copy(p.Buffer(), o)
		p.SetLen(len(o))
		p.Invalidate()
		room := len(p.Buffer())
		if v.Process(p) != Pass || !p.HasAH() {
			t.Fatalf("frame of %d B not encapsulated", len(o))
		}
		if front := len(p.Buffer()) - room; pool != nil && len(o) > 100 && front != packet.AHHeaderLen {
			t.Fatalf("pool frame of %d B: the AH took %d B of headroom, want %d", len(o), front, packet.AHHeaderLen)
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
