package nf

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"net/netip"
	"testing"

	"nfp/internal/packet"
)

// vpnBufSize is the dataplane's pool buffer size (dataplane.bufSize):
// the frame plus the AH header must fit in it.
const vpnBufSize = 2048

// vpnMaxPayload is the largest TCP payload a pool buffer can carry and
// still take the AH header.
const vpnMaxPayload = vpnBufSize - packet.AHHeaderLen -
	packet.EthHeaderLen - packet.IPv4HeaderLen - packet.TCPHeaderLen

// vpnGoldenLens are the payload lengths whose encapsulated bytes are
// pinned: empty, one byte, around one and two AES blocks, the
// datacenter mix's 542 B, a full 1500 B frame, and the largest payload.
var vpnGoldenLens = []int{0, 1, 15, 16, 17, 31, 33, 542, 1446, vpnMaxPayload}

// vpnGolden holds SHA-256 digests of VPN.Process output for
// vpnGoldenFrame(n) under the default key with AH sequence number
// vpnGoldenSeq, recorded at commit 2a92569 — before crypt was
// rewritten. A change here changes the bytes on the wire.
var vpnGolden = map[int]string{
	0:             "318da11103e15b495a98b5740d2882d32239ad67a2563f6672654d1f1bb5be41",
	1:             "36e551985a5336ddb5567582ca6e8ca80e7b879e8a740eddc7422adf8811480b",
	15:            "4f5a2b51ac90966b17ab20cdd6e49b67fcfea0d0bc4d6dc1efb2dd7f38a1416f",
	16:            "fa2f00b5fbb6ed3100126be9b1951012c64f43721aa56d960acfc3bd9835ac41",
	17:            "21acda9ecec925bfaa6bccdc7a79858f986bfe6bb4609ce4061999a1f2305b1b",
	31:            "a0ed157a73bc0c72f65ecf9207f7f50f56981747b08cdb0e2972c0f3676d3f7b",
	33:            "1ab16a0bc5767ad52b7111fd2b0c373795ef05ad19f9ee36185bffcdf5dcab56",
	542:           "7f13aa5cac560ead761dd2f6b1d7144ef3885e33e5379a1dd93ca438ca3bdf09",
	1446:          "af4a380830a66e15084e348239fefde09535fc78cea9067f9b5dc2bf210ebdc6",
	vpnMaxPayload: "0e43d859acc2718277c076ec7f7c6bf20d2666ae4cd4c27f60058baf3d61277a",
}

const vpnGoldenSeq = 0x00c0ffee

// vpnGoldenFrame builds a TCP frame with an n-byte patterned payload in
// a pool-sized buffer.
func vpnGoldenFrame(n int) *packet.Packet {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i*7 + n)
	}
	p := packet.New(make([]byte, vpnBufSize))
	packet.BuildInto(p, packet.BuildSpec{
		SrcIP: netip.MustParseAddr("10.1.2.3"), DstIP: netip.MustParseAddr("192.0.2.9"),
		Proto: packet.ProtoTCP, SrcPort: 40000, DstPort: 443, Payload: payload,
	})
	return p
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

// TestVPNCryptMatchesStdlibCTR holds crypt to cipher.NewCTR over the
// same IV (spi‖seq‖0⁸) at lengths past 256 blocks, where the
// whole-block increment carries out of the last counter byte.
func TestVPNCryptMatchesStdlibCTR(t *testing.T) {
	v := goldenVPN(t)
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint32(iv[0:4], v.spi)
	binary.BigEndian.PutUint32(iv[4:8], vpnGoldenSeq)
	for _, n := range []int{0, 1, 15, 16, 17, 255, 256, 257, 1446, 4095, 4096, 4097, 5000} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*13 + 1)
		}
		want := make([]byte, n)
		cipher.NewCTR(v.block, iv[:]).XORKeyStream(want, data)
		v.crypt(data, vpnGoldenSeq)
		if !bytes.Equal(data, want) {
			t.Fatalf("length %d: crypt differs from AES-CTR", n)
		}
	}
}
