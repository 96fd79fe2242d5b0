package nf

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math"

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
// v1.IP) describes — and "AES plus an integrity value" as one AES-GCM
// pass with a 12-byte tag in the AH ICV slot, the IPsec form of RFC 4106
// and RFC 4543, from the Go standard library. The nonce is spi‖seq‖0⁴
// and the additional data seq‖src‖dst.
type VPN struct {
	aead cipher.AEAD
	spi  uint32
	seq  uint32
	done uint64

	// Per-instance scratch: Seal and Open are interface calls, so a
	// nonce or AAD array on the stack would escape to the heap on every
	// packet. An NF instance runs on one goroutine (seq relies on that).
	nonce [12]byte
	aad   [12]byte
}

// vpnTagLen is the GCM tag length: the AH header's ICV slot.
const vpnTagLen = 12

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
	aead, err := cipher.NewGCMWithTagSize(block, vpnTagLen)
	if err != nil {
		return nil, fmt.Errorf("vpn: %w", err)
	}
	return &VPN{aead: aead, spi: 0x4e4650}, nil
}

// Name implements NF.
func (v *VPN) Name() string { return nfa.NFVPN }

// Process splices an AH header after the IP header and seals the
// payload in place, the tag going into the header's ICV slot. A frame
// whose buffer cannot take the header plus the tag's tailroom passes
// through unmodified.
func (v *VPN) Process(p *packet.Packet) Verdict {
	if err := p.Parse(); err != nil {
		return Pass
	}
	if p.HasAH() {
		return Pass // already encapsulated
	}
	// Seal appends the tag past the payload: checked here, because an
	// append past the buffer would allocate and seal out of place.
	if p.Len()+packet.AHHeaderLen+vpnTagLen > len(p.Buffer()) {
		return Pass
	}
	l, _ := p.Layout()
	// The counter must not cycle (RFC 4302 §3.3.3): where it would, the
	// instance moves to the next SA, so no (spi, seq) — no GCM nonce —
	// repeats under the key.
	if v.seq == math.MaxUint32 {
		v.spi, v.seq = v.spi+1, 0
	}
	v.seq++

	// Every AH field but the ICV is written before the IP protocol
	// flips: the re-parse behind SetTotalLen reads the next header.
	var ah [packet.AHHeaderLen]byte
	ah[0] = l.L4Proto                // next header
	ah[1] = packet.AHHeaderLen/4 - 2 // payload length in 32-bit words - 2
	binary.BigEndian.PutUint32(ah[4:8], v.spi)
	binary.BigEndian.PutUint32(ah[8:12], v.seq)
	ahOff := l.L3Off + packet.IPv4HeaderLen
	if err := p.InsertAt(ahOff, ah[:]); err != nil {
		return Pass
	}
	b := p.Bytes()
	b[l.L3Off+9] = packet.ProtoAH
	p.Invalidate()
	p.SetTotalLen(uint16(p.Len() - packet.EthHeaderLen))

	v.bind(b[ahOff+4:ahOff+12], b[l.L3Off+12:l.L3Off+20])
	pl := p.Payload()
	copy(b[ahOff+12:ahOff+packet.AHHeaderLen], v.aead.Seal(pl[:0], v.nonce[:], pl, v.aad[:])[len(pl):])
	p.UpdateL4Checksum() // checksum over the encrypted payload (wire-correct)
	v.done++
	return Pass
}

// Decap reverses Process on an encapsulated packet: it removes the AH
// header and opens the payload in place. It returns an error if the
// packet carries no well-formed AH header or fails the integrity check;
// a failed check leaves the packet stripped and its payload zeroed. Used
// by tests and the decapsulating endpoint of examples.
func (v *VPN) Decap(p *packet.Packet) error {
	if err := p.Parse(); err != nil {
		return err
	}
	if !p.HasAH() {
		return fmt.Errorf("vpn: packet has no AH header")
	}
	ahb := p.FieldBytes(packet.FieldAH)
	if ahb[1] != packet.AHHeaderLen/4-2 || ahb[2]|ahb[3] != 0 {
		return fmt.Errorf("vpn: malformed AH header")
	}
	next := ahb[0]
	var tag [vpnTagLen]byte
	copy(tag[:], ahb[12:])
	l, _ := p.Layout()
	v.bind(ahb[4:12], p.Bytes()[l.L3Off+12:l.L3Off+20])
	if err := p.RemoveAt(l.AHOff, packet.AHHeaderLen); err != nil {
		return err
	}
	b := p.Bytes()
	b[l.L3Off+9] = next
	p.Invalidate()
	p.SetTotalLen(uint16(p.Len() - packet.EthHeaderLen))

	// The removed header left the tailroom the tag goes back into.
	pl := p.Payload()
	sealed := pl[:len(pl)+vpnTagLen]
	copy(sealed[len(pl):], tag[:])
	if _, err := v.aead.Open(pl[:0], v.nonce[:], sealed, v.aad[:]); err != nil {
		return fmt.Errorf("vpn: AH integrity check failed")
	}
	p.UpdateL4Checksum()
	return nil
}

// bind sets the nonce (spi‖seq‖0⁴) and the additional data (seq‖src‖dst)
// of one packet from its AH spi‖seq and IPv4 src‖dst bytes.
func (v *VPN) bind(spiSeq, addrs []byte) {
	copy(v.nonce[:8], spiSeq)
	copy(v.aad[:4], spiSeq[4:])
	copy(v.aad[4:], addrs)
}

// Encapsulated returns how many packets were wrapped.
func (v *VPN) Encapsulated() uint64 { return v.done }
