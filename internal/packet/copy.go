package packet

import "encoding/binary"

// Both copies warm src's layout and flow key first (a no-op on the
// dataplane, which parses every packet at ingress) and hand them to the
// copy with the bytes (copyInto): NFs sharing a copy in a no-copy group
// must never write either cache concurrently, and a copy born warm gives
// them no occasion to.

// HeaderOnlyCopy copies only the header prefix of src into dst and tags
// dst with version. Per §5.2 ("copy" action), the copied header's packet
// length field is rewritten to the length of the header itself so that
// parallel NFs receive a valid, self-consistent packet.
//
// dst must come from a pool whose buffers hold at least the header
// prefix. The ingress timestamp is preserved for latency accounting.
func HeaderOnlyCopy(src, dst *Packet, version uint8) {
	n := src.HeaderLen()
	src.copyInto(dst, n)
	dst.Meta.Version = version
	// Mark the truncated copy internally consistent: IP total length now
	// covers only the headers that were copied. One field changed, so the
	// header checksum is updated for it (RFC 1624, eq. 3), not re-summed.
	h := dst.buf[dst.layout.L3Off:]
	old, total := binary.BigEndian.Uint16(h[2:4]), uint16(n-EthHeaderLen)
	binary.BigEndian.PutUint16(h[2:4], total)
	updateIPChecksum(h, uint32(^old)+uint32(total))
}

// FullCopy copies the entire wire contents of src into dst and tags dst
// with version. Used when an NF's conflicting action touches the payload
// (the rare 7% of NFs per Table 2), and by the full-copy ablation.
func FullCopy(src, dst *Packet, version uint8) {
	_ = src.Parse() // an unparseable packet copies cold, as it arrived
	src.CloneInto(dst)
	dst.Meta.Version = version
}
