package nf

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// VPN implements "the tunnel mode of IPsec Authentication Header (AH)
// protocol. It encrypts a packet based on the AES algorithm and wraps
// it with an AH header" (§6.1).
//
// Substitution note (DESIGN.md): we realize the AH wrap as a
// transport-style insertion after the IP header — exactly the
// structural change the paper's merging operation add(v2.AH, after,
// v1.IP) describes — with AES-CTR payload encryption and an
// HMAC-SHA256-96 integrity check value, all from the Go standard
// library.
type VPN struct {
	block cipher.Block
	mac   []byte // HMAC key
	spi   uint32
	seq   uint32
	done  uint64

	// Per-instance scratch. An NF instance runs on one goroutine (seq
	// already relies on that), so the HMAC state, the counter block and
	// the keystream are reused across packets instead of allocated per
	// call — the north-south path's dominant allocation site before this
	// existed.
	hm   hash.Hash
	sum  [sha256.Size]byte
	seqb [4]byte
	ctr  [aes.BlockSize]byte
	ks   [ksChunk]byte
}

// ksChunk is how much keystream crypt generates before XORing it in:
// 16 AES blocks, a 1500 B frame's payload in six chunks.
const ksChunk = 16 * aes.BlockSize

// NewVPN creates a VPN NF. A nil key selects a fixed test key;
// otherwise the key must be 16, 24 or 32 bytes (AES-128/192/256).
func NewVPN(key []byte) (*VPN, error) {
	if key == nil {
		key = []byte("nfp-eval-aes-key") // 16 bytes
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("vpn: %w", err)
	}
	v := &VPN{block: block, mac: append([]byte(nil), key...), spi: 0x4e4650}
	v.hm = hmac.New(sha256.New, v.mac)
	return v, nil
}

// Name implements NF.
func (v *VPN) Name() string { return nfa.NFVPN }

// Profile implements NF.
func (v *VPN) Profile() nfa.Profile { return profileFor(nfa.NFVPN) }

// Process encrypts the payload in place and splices an AH header after
// the IP header.
func (v *VPN) Process(p *packet.Packet) Verdict {
	if err := p.Parse(); err != nil {
		return Pass
	}
	if p.HasAH() {
		return Pass // already encapsulated
	}
	l, _ := p.Layout()
	v.seq++
	seq := v.seq

	// Encrypt the payload with AES-CTR; the IV is derived from the AH
	// sequence number so Decap can reconstruct it.
	v.crypt(p.Payload(), seq)

	// Build the AH header.
	var ah [packet.AHHeaderLen]byte
	ah[0] = p.Protocol()             // next header
	ah[1] = packet.AHHeaderLen/4 - 2 // payload length in 32-bit words - 2
	binary.BigEndian.PutUint32(ah[4:8], v.spi)
	binary.BigEndian.PutUint32(ah[8:12], seq)
	icv := v.icv(p, seq)
	copy(ah[12:24], icv)

	ipEnd := l.L3Off + packet.IPv4HeaderLen
	if err := p.InsertAt(ipEnd, ah[:]); err != nil {
		// Buffer too small for encapsulation: decrypt back and pass
		// through unmodified rather than corrupting the packet.
		v.crypt(p.Payload(), seq)
		return Pass
	}
	b := p.Bytes()
	b[l.L3Off+9] = packet.ProtoAH
	p.Invalidate()
	p.SetTotalLen(uint16(p.Len() - packet.EthHeaderLen))
	p.UpdateL4Checksum() // checksum over the encrypted payload (wire-correct)
	v.done++
	return Pass
}

// Decap reverses Process on an encapsulated packet: verifies and
// removes the AH header and decrypts the payload. It returns an error
// if the packet carries no AH header or fails integrity verification.
// Used by tests and the decapsulating endpoint of examples.
func (v *VPN) Decap(p *packet.Packet) error {
	if err := p.Parse(); err != nil {
		return err
	}
	if !p.HasAH() {
		return fmt.Errorf("vpn: packet has no AH header")
	}
	ahb := p.FieldBytes(packet.FieldAH)
	next := ahb[0]
	seq := binary.BigEndian.Uint32(ahb[8:12])
	wantICV := append([]byte(nil), ahb[12:24]...)

	r, _ := p.FieldRange(packet.FieldAH)
	l, _ := p.Layout()
	if err := p.RemoveAt(r.Off, r.Len); err != nil {
		return err
	}
	b := p.Bytes()
	b[l.L3Off+9] = next
	p.Invalidate()
	p.SetTotalLen(uint16(p.Len() - packet.EthHeaderLen))

	if gotICV := v.icv(p, seq); !hmac.Equal(gotICV, wantICV) {
		return fmt.Errorf("vpn: AH integrity check failed")
	}
	v.crypt(p.Payload(), seq) // CTR: decryption = encryption
	p.UpdateL4Checksum()
	return nil
}

// crypt en/decrypts data in place with AES-CTR keyed by seq: the
// initial counter block is spi‖seq‖0⁸ and it increments as one
// big-endian 128-bit number — cipher.NewCTR's output over that IV. The
// keystream goes into instance scratch a chunk at a time and is XORed
// in by words. NewCTR would be faster but allocates its stream state
// on every call, and this path allocates nothing.
func (v *VPN) crypt(data []byte, seq uint32) {
	hi, lo := uint64(v.spi)<<32|uint64(seq), uint64(0)
	for len(data) > 0 {
		n := min(len(data), ksChunk)
		for off := 0; off < n; off += aes.BlockSize {
			binary.BigEndian.PutUint64(v.ctr[0:8], hi)
			binary.BigEndian.PutUint64(v.ctr[8:16], lo)
			v.block.Encrypt(v.ks[off:], v.ctr[:])
			if lo++; lo == 0 {
				hi++
			}
		}
		subtle.XORBytes(data, data, v.ks[:n])
		data = data[n:]
	}
}

// icv computes the truncated HMAC-SHA256 integrity value over the
// addresses and (encrypted) payload of the un-encapsulated packet. The
// returned slice aliases instance scratch — valid until the next icv
// call.
func (v *VPN) icv(p *packet.Packet, seq uint32) []byte {
	v.hm.Reset()
	binary.BigEndian.PutUint32(v.seqb[:], seq)
	v.hm.Write(v.seqb[:])
	v.hm.Write(p.FieldBytes(packet.FieldSrcIP))
	v.hm.Write(p.FieldBytes(packet.FieldDstIP))
	v.hm.Write(p.Payload())
	return v.hm.Sum(v.sum[:0])[:12]
}

// Encapsulated returns how many packets were wrapped.
func (v *VPN) Encapsulated() uint64 { return v.done }
