package nf

import (
	"math/rand"
	"net/netip"
	"testing"

	"nfp/internal/mempool"
	"nfp/internal/packet"
	"nfp/internal/trafficgen"
)

// dcMixFrames builds n TCP frames in pool frames, headroom and all,
// sizes drawn from the Benson datacenter mix (fig13_dcmix's traffic)
// and payload random, so no kernel gets to skip a zero-filled frame.
// orig holds each frame's bytes for restoring after an NF that rewrites
// in place (restore).
func dcMixFrames(n int) (pkts []*packet.Packet, orig [][]byte) {
	sizes := trafficgen.NewDataCenter(1)
	rng := rand.New(rand.NewSource(1))
	pool := mempool.New(n, vpnBufSize)
	for i := 0; i < n; i++ {
		payload := make([]byte, sizes.Next()-packet.EthHeaderLen-packet.IPv4HeaderLen-packet.TCPHeaderLen)
		rng.Read(payload)
		p := pool.Get()
		packet.BuildInto(p, packet.BuildSpec{
			SrcIP: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), DstIP: netip.MustParseAddr("192.0.2.9"),
			Proto: packet.ProtoTCP, SrcPort: uint16(1024 + i), DstPort: 80, Payload: payload,
		})
		pkts = append(pkts, p)
		orig = append(orig, append([]byte(nil), p.Bytes()...))
	}
	return pkts, orig
}

// restore puts frame o back into p the way the pool hands a frame out:
// at the headroom, whatever an insertion moved.
func restore(p *packet.Packet, o []byte) {
	p.Reset(vpnBufSize - mempool.Headroom)
	copy(p.Buffer(), o)
	p.SetLen(len(o))
}

// kernelBench times op over a datacenter-mix frame set and fails if op
// allocates: fig13_dcmix allocates nothing per packet.
func kernelBench(b *testing.B, op func(i int)) {
	if a := testing.AllocsPerRun(1000, func() { op(0) }); a != 0 {
		b.Fatalf("%v allocs/op, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// BenchmarkIDSProcess_DCMix is the per-packet cost of the evaluation
// IDS (100 signatures, inline).
func BenchmarkIDSProcess_DCMix(b *testing.B) {
	ids, err := NewIDS(DefaultSignatureCount, true)
	if err != nil {
		b.Fatal(err)
	}
	pkts, _ := dcMixFrames(1024)
	kernelBench(b, func(i int) {
		if ids.Process(pkts[i&1023]) != Pass {
			b.Fatal("random payload hit a signature")
		}
	})
}

// BenchmarkVPNProcess_DCMix is the per-packet cost of AH encapsulation
// (the header spliced in front of the payload, one in-place AES-GCM Seal
// with a 12-byte tag, the TCP checksum re-sum), plus restoring the frame
// it rewrote — one copy of at most 1500 B.
func BenchmarkVPNProcess_DCMix(b *testing.B) {
	v, err := NewVPN(nil)
	if err != nil {
		b.Fatal(err)
	}
	pkts, orig := dcMixFrames(1024)
	kernelBench(b, func(i int) {
		p, o := pkts[i&1023], orig[i&1023]
		restore(p, o)
		v.Process(p)
	})
}
