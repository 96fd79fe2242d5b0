// Package cluster implements the paper's cross-server NF parallelism
// design (§7, "NFP Scalability"): "NFP could partition the service
// graph onto multiple servers obeying: each server sends only one copy
// of a packet to the next server. In this way, we could still benefit
// from NF parallelism without introducing extra network bandwidth
// resource overhead. Packet delivery between servers could refer to
// Flowtags or Network Service Header (NSH)."
//
// The package provides the three pieces that design needs:
//
//   - a service-graph partitioner that cuts only at one-copy points,
//   - an NSH-style shim header carrying the NFP metadata (service
//     path, service index, MID, PID) across servers,
//   - an inter-server link contract with an in-memory implementation,
//     and a Cluster that wires partitioned dataplane servers together.
package cluster

import (
	"encoding/binary"
	"fmt"

	"nfp/internal/packet"
)

// NSH header geometry. The layout follows RFC 8300's MD-type-2 shape
// scaled to what NFP needs: a 4-byte base word, a 4-byte service path
// word, and an 8-byte NFP metadata TLV (the Figure 5 word).
const (
	nshBaseLen = 8
	nshMetaLen = 8
	// NSHLen is the full shim length inserted between the Ethernet
	// header and the IP packet.
	NSHLen = nshBaseLen + nshMetaLen

	// EtherTypeNSH is the NSH ethertype (IEEE 0x894F).
	EtherTypeNSH = 0x894F

	nshVersionFlags = 0x0 // version 0, no O bit
	nshMDType       = 0x2
	nshNextProtoIP4 = 0x01
)

// NSH is the decoded shim.
type NSH struct {
	// ServicePathID identifies the partitioned service graph's path
	// (24 bits on the wire).
	ServicePathID uint32
	// ServiceIndex is the next segment to execute, decremented at
	// every server hop (RFC 8300 semantics).
	ServiceIndex uint8
	// Meta is the NFP packet metadata carried across the wire.
	Meta packet.Meta
}

// EncapNSH inserts the shim after the Ethernet header and rewrites the
// ethertype. The packet's buffer must have NSHLen bytes of headroom.
func EncapNSH(p *packet.Packet, h NSH) error {
	if err := p.Parse(); err != nil {
		return fmt.Errorf("cluster: encap: %w", err)
	}
	var shim [NSHLen]byte
	shim[0] = nshVersionFlags
	shim[1] = NSHLen / 4 // length in 4-byte words
	shim[2] = nshMDType
	shim[3] = nshNextProtoIP4
	binary.BigEndian.PutUint32(shim[4:8], h.ServicePathID<<8|uint32(h.ServiceIndex))
	binary.BigEndian.PutUint64(shim[8:16], h.Meta.Word())
	if err := p.InsertAt(packet.EthHeaderLen, shim[:]); err != nil {
		return fmt.Errorf("cluster: encap: %w", err)
	}
	binary.BigEndian.PutUint16(p.Buffer()[12:14], EtherTypeNSH)
	p.Invalidate()
	return nil
}

// DecapNSH parses and removes the shim, restoring the IPv4 ethertype.
func DecapNSH(p *packet.Packet) (NSH, error) {
	b := p.Bytes()
	if len(b) < packet.EthHeaderLen+NSHLen {
		return NSH{}, fmt.Errorf("cluster: decap: truncated packet (%d bytes)", len(b))
	}
	if binary.BigEndian.Uint16(b[12:14]) != EtherTypeNSH {
		return NSH{}, fmt.Errorf("cluster: decap: not an NSH packet")
	}
	shim := b[packet.EthHeaderLen : packet.EthHeaderLen+NSHLen]
	if shim[1] != NSHLen/4 || shim[2] != nshMDType {
		return NSH{}, fmt.Errorf("cluster: decap: unexpected NSH geometry (len=%d md=%d)", shim[1], shim[2])
	}
	sp := binary.BigEndian.Uint32(shim[4:8])
	h := NSH{
		ServicePathID: sp >> 8,
		ServiceIndex:  uint8(sp),
		Meta:          packet.MetaFromWord(binary.BigEndian.Uint64(shim[8:16])),
	}
	if err := p.RemoveAt(packet.EthHeaderLen, NSHLen); err != nil {
		return NSH{}, err
	}
	binary.BigEndian.PutUint16(p.Buffer()[12:14], packet.EtherTypeIPv4)
	p.Invalidate()
	return h, nil
}

// IsNSH reports whether the frame carries the NSH ethertype.
func IsNSH(b []byte) bool {
	return len(b) >= packet.EthHeaderLen &&
		binary.BigEndian.Uint16(b[12:14]) == EtherTypeNSH
}
