package nf

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"net/netip"
	"testing"

	"nfp/internal/mempool"
	"nfp/internal/packet"
)

// vpnBufSize is the dataplane's pool buffer size (dataplane.bufSize):
// the frame plus the AH header and the tag Seal appends must fit in it.
const vpnBufSize = 2048

// vpnMaxPayload is the largest TCP payload a pool buffer can carry and
// still take the AH header plus the GCM tag's tailroom.
const vpnMaxPayload = vpnBufSize - packet.AHHeaderLen - vpnTagLen -
	packet.EthHeaderLen - packet.IPv4HeaderLen - packet.TCPHeaderLen

// vpnGoldenLens are the payload lengths whose encapsulated bytes are
// pinned: empty, one byte, around one and two AES blocks, the
// datacenter mix's 542 B, a full 1500 B frame, and the largest payload.
var vpnGoldenLens = []int{0, 1, 15, 16, 17, 31, 33, 542, 1446, vpnMaxPayload}

// vpnGolden holds SHA-256 digests of VPN.Process output for
// vpnGoldenFrame(n) under the default key with AH sequence number
// vpnGoldenSeq. They were re-recorded when the payload protection went
// from AES-CTR plus HMAC-SHA256-96 to one AES-GCM pass (same header
// layout, new ciphertext and ICV). A change here changes the bytes on
// the wire.
var vpnGolden = map[int]string{
	0:             "d94f394c3b027658a655341087808fe27e0623fc22c3b9dc8add7b2948f53087",
	1:             "cd5ef32a905bbd9dcb1ec2d0c50eb8ba228c467767e56002e4e5c2c38c291e95",
	15:            "ed87c2ad8ac7edd03a5c53858f23fbd674058a79ca7c7431a430774da9deefd2",
	16:            "c09982ee22c79d5aa7e58ef738681a7af4d9ca261fb44940e1bce37351f7b9da",
	17:            "25f7cff80cb352a7bb805d66a2e93edb9bbe49f8b96c58868eae513565fdcf7e",
	31:            "13980dfcc5c0911c852edd0ca7341618252233d87d0dac2fdfe7a0cfcd134361",
	33:            "98b43f4e820c23e8554c7cb1192fcebe8eaaca6b5638d81cd6f93937bc5ab38c",
	542:           "81d3cd0b49fee78eb3e844ac45676f338d685df690b983a6bff5eb68bf8718c8",
	1446:          "23412be312c3e9d12ce11f1554741df5b21288148494ed41300404d3c506d589",
	vpnMaxPayload: "a66ac1de9506a566728115a3f5930d0b6bd8304bdf2430348376be954f933d70",
}

// The wire constants a GCM built outside the VPN derives its nonce and
// additional data from.
const (
	vpnGoldenSPI = 0x4e4650
	vpnGoldenSeq = 0x00c0ffee
)

var vpnGoldenSrc, vpnGoldenDst = netip.MustParseAddr("10.1.2.3"), netip.MustParseAddr("192.0.2.9")

// vpnFrame builds a TCP frame carrying payload in a pool-sized buffer.
func vpnFrame(payload []byte) *packet.Packet {
	p := packet.New(make([]byte, vpnBufSize))
	packet.BuildInto(p, packet.BuildSpec{
		SrcIP: vpnGoldenSrc, DstIP: vpnGoldenDst,
		Proto: packet.ProtoTCP, SrcPort: 40000, DstPort: 443, Payload: payload,
	})
	return p
}

// vpnGoldenFrame builds a TCP frame with an n-byte patterned payload in
// a pool-sized buffer.
func vpnGoldenFrame(n int) *packet.Packet {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i*7 + n)
	}
	return vpnFrame(payload)
}

// withOptions gives p's IPv4 header words 4-byte option words (ihl
// 5+words) of patterned bytes, with the total length and checksum to
// match.
func withOptions(p *packet.Packet, words int) {
	if words == 0 {
		return
	}
	o := make([]byte, 4*words)
	for i := range o {
		o[i] = byte(i*13 + words)
	}
	if err := p.InsertAt(packet.EthHeaderLen+packet.IPv4HeaderLen, o); err != nil {
		panic(err)
	}
	p.Bytes()[packet.EthHeaderLen] = 0x40 | byte(5+words)
	p.Invalidate()
	p.SetTotalLen(uint16(p.Len() - packet.EthHeaderLen))
}

func goldenVPN(t testing.TB) *VPN {
	v, err := NewVPN(nil)
	if err != nil {
		t.Fatal(err)
	}
	v.seq = vpnGoldenSeq - 1 // Process increments before use
	return v
}

func TestVPNGoldenWire(t *testing.T) {
	for _, n := range vpnGoldenLens {
		p := vpnGoldenFrame(n)
		if v := goldenVPN(t); v.Process(p) != Pass || !p.HasAH() {
			t.Fatalf("payload %d: not encapsulated", n)
		}
		sum := sha256.Sum256(p.Bytes())
		if got := hex.EncodeToString(sum[:]); got != vpnGolden[n] {
			t.Errorf("payload %d: wire digest %s, want %s", n, got, vpnGolden[n])
		}
	}
	// One byte more and the tag has no tailroom: the frame passes as it
	// came.
	p := vpnGoldenFrame(vpnMaxPayload + 1)
	orig := append([]byte(nil), p.Bytes()...)
	if v := goldenVPN(t); v.Process(p) != Pass || p.HasAH() || !bytes.Equal(p.Bytes(), orig) {
		t.Fatalf("payload %d: frame changed, want it passed unmodified", vpnMaxPayload+1)
	}
}

func TestVPNDecapRoundTrip(t *testing.T) {
	for _, n := range vpnGoldenLens {
		p := vpnGoldenFrame(n)
		orig := append([]byte(nil), p.Bytes()...)
		v := goldenVPN(t)
		v.Process(p)
		if n >= aes.BlockSize && bytes.Contains(p.Bytes(), orig[len(orig)-n:]) {
			t.Fatalf("payload %d: plaintext still on the wire", n)
		}
		if err := v.Decap(p); err != nil {
			t.Fatalf("payload %d: %v", n, err)
		}
		if !bytes.Equal(p.Bytes(), orig) {
			t.Fatalf("payload %d: Decap did not restore the frame", n)
		}
	}
}

// TestVPNIPOptionsRoundTrip: on a frame whose IPv4 header carries
// options (ihl 6–15), the AH goes in behind them — in a standalone
// buffer and in a pool frame with headroom — the parse finds TCP behind
// it, and Decap restores the frame byte for byte.
func TestVPNIPOptionsRoundTrip(t *testing.T) {
	pool := mempool.New(1, vpnBufSize)
	for ihl := 6; ihl <= 15; ihl++ {
		for _, n := range []int{0, 33, 542, 1446} {
			for _, pooled := range []bool{false, true} {
				p := vpnGoldenFrame(n)
				withOptions(p, ihl-5)
				if pooled {
					q := pool.Get()
					copy(q.Buffer(), p.Bytes())
					q.SetLen(p.Len())
					p = q
				}
				orig := append([]byte(nil), p.Bytes()...)
				v := goldenVPN(t)
				if v.Process(p) != Pass || !p.HasAH() {
					t.Fatalf("ihl %d payload %d: not encapsulated", ihl, n)
				}
				if ah, _ := p.FieldRange(packet.FieldAH); ah.Off != packet.EthHeaderLen+4*ihl {
					t.Fatalf("ihl %d payload %d: AH at %d, want %d", ihl, n, ah.Off, packet.EthHeaderLen+4*ihl)
				}
				fresh := packet.New(append([]byte(nil), p.Bytes()...))
				if fresh.Protocol() != packet.ProtoTCP || !fresh.HasAH() {
					t.Fatalf("ihl %d payload %d: parse finds protocol %d behind the AH", ihl, n, fresh.Protocol())
				}
				if err := v.Decap(p); err != nil || !bytes.Equal(p.Bytes(), orig) {
					t.Fatalf("ihl %d payload %d pooled %v: round trip: %v", ihl, n, pooled, err)
				}
				p.Free()
			}
		}
	}
}

// TestVPNSealMatchesStdlibGCM holds the wire to an AES-GCM built here
// from the test's own constants: at every pinned length, the payload on
// the wire followed by the ICV is Seal of the plaintext under nonce
// spi‖seq‖0⁴ and additional data seq‖src‖dst.
func TestVPNSealMatchesStdlibGCM(t *testing.T) {
	block, err := aes.NewCipher([]byte("nfp-eval-aes-key"))
	if err != nil {
		t.Fatal(err)
	}
	gcm, err := cipher.NewGCMWithTagSize(block, 12)
	if err != nil {
		t.Fatal(err)
	}
	var nonce [12]byte
	binary.BigEndian.PutUint32(nonce[0:4], vpnGoldenSPI)
	binary.BigEndian.PutUint32(nonce[4:8], vpnGoldenSeq)
	aad := binary.BigEndian.AppendUint32(nil, vpnGoldenSeq)
	aad = append(append(aad, vpnGoldenSrc.AsSlice()...), vpnGoldenDst.AsSlice()...)
	for _, n := range vpnGoldenLens {
		p := vpnGoldenFrame(n)
		want := gcm.Seal(nil, nonce[:], p.Payload(), aad)
		goldenVPN(t).Process(p)
		got := append(append([]byte(nil), p.Payload()...), p.FieldBytes(packet.FieldAH)[12:]...)
		if !bytes.Equal(got, want) {
			t.Fatalf("payload %d: wire payload‖ICV differs from AES-GCM Seal", n)
		}
	}
}

// TestVPNSequenceNeverCycles sends an instance's first packet, then
// moves it two packets short of the 32-bit sequence wrap: the packets
// past the wrap must go out under the next SA rather than reuse an
// (spi, seq) pair of the first SA, and every packet must decapsulate.
func TestVPNSequenceNeverCycles(t *testing.T) {
	v, err := NewVPN(nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[8]byte]bool{}
	for i := 0; i < 4; i++ {
		if i == 1 {
			v.seq = math.MaxUint32 - 1
		}
		p := vpnGoldenFrame(542)
		orig := append([]byte(nil), p.Bytes()...)
		v.Process(p)
		id := [8]byte(p.FieldBytes(packet.FieldAH)[4:12])
		if seen[id] {
			t.Fatalf("packet %d reuses spi‖seq %x", i, id)
		}
		seen[id] = true
		if err := v.Decap(p); err != nil || !bytes.Equal(p.Bytes(), orig) {
			t.Fatalf("packet %d (spi‖seq %x): Decap %v", i, id, err)
		}
	}
}

// FuzzVPN holds Process and Decap to each other on random payloads: the
// round trip restores the frame byte for byte, and one flipped bit in
// the AH header, the addresses or the payload makes Decap fail.
func FuzzVPN(f *testing.F) {
	// Bit flips in the next header, the length, the reserved field, the
	// ICV and the payload; then frames whose IPv4 header carries options.
	f.Add([]byte("confidential"), uint16(12), uint32(0), uint8(0))
	f.Add([]byte{0xff, 0}, uint16(1446), uint32(12), uint8(0))
	f.Add([]byte{1, 2, 3}, uint16(542), uint32(25), uint8(0))
	f.Add([]byte{}, uint16(0), uint32(100), uint8(0))
	f.Add([]byte("x"), uint16(vpnMaxPayload), uint32(1<<20), uint8(0))
	f.Add([]byte("opt"), uint16(542), uint32(0), uint8(1))
	f.Add([]byte{7}, uint16(1446), uint32(99), uint8(10))
	f.Add([]byte{}, uint16(vpnMaxPayload), uint32(1<<16), uint8(5))
	f.Fuzz(func(t *testing.T, seed []byte, size uint16, bit uint32, opts uint8) {
		words := int(opts) % 11
		payload := make([]byte, int(size)%(vpnMaxPayload-4*words+1))
		for i := range payload {
			if len(seed) > 0 {
				payload[i] = seed[i%len(seed)]
			}
		}
		p := vpnFrame(payload)
		withOptions(p, words)
		orig := append([]byte(nil), p.Bytes()...)
		v, err := NewVPN(nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.Process(p) != Pass || !p.HasAH() {
			t.Fatalf("payload %d: not encapsulated", len(payload))
		}
		sealed := append([]byte(nil), p.Bytes()...)
		if err := v.Decap(p); err != nil || !bytes.Equal(p.Bytes(), orig) {
			t.Fatalf("payload %d: round trip: %v", len(payload), err)
		}

		copy(p.Buffer(), sealed)
		p.SetLen(len(sealed))
		p.Invalidate()
		ah, _ := p.FieldRange(packet.FieldAH)
		src, _ := p.FieldRange(packet.FieldSrcIP)
		pl, _ := p.FieldRange(packet.FieldPayload)
		regions := []packet.Range{ah, {Off: src.Off, Len: 8}, pl} // src‖dst
		flip := int(bit) % (8 * (ah.Len + 8 + pl.Len))
		for k, r := flip, 0; ; k, r = k-8*regions[r].Len, r+1 {
			if k < 8*regions[r].Len {
				p.Buffer()[regions[r].Off+k/8] ^= 1 << (k % 8)
				break
			}
		}
		if err := v.Decap(p); err == nil {
			t.Fatalf("payload %d: Decap accepted bit %d of AH‖addresses‖payload flipped", len(payload), flip)
		}
	})
}
