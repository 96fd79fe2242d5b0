package packet

// HeaderOnlyCopy copies only the header prefix of src into dst and tags
// dst with version. Per §5.2 ("copy" action), the copied header's packet
// length field is rewritten to the length of the header itself so that
// parallel NFs receive a valid, self-consistent packet.
//
// dst must come from a pool whose buffers hold at least the header
// prefix. The ingress timestamp is preserved for latency accounting.
func HeaderOnlyCopy(src, dst *Packet, version uint8) {
	n := src.HeaderLen()
	copy(dst.buf, src.buf[:n])
	dst.wire = n
	dst.Meta = src.Meta
	dst.Meta.Version = version
	dst.Ingress = src.Ingress
	dst.Nil = false
	dst.Invalidate()
	// Mark the truncated copy internally consistent: IP total length now
	// covers only the headers that were copied.
	if err := dst.Parse(); err == nil {
		dst.SetTotalLen(uint16(n - EthHeaderLen))
	}
	// Pre-warm the flow key alongside the layout: NFs sharing the copy
	// in a no-copy group must never write either cache concurrently.
	_, _ = dst.FlowKey()
}

// FullCopy copies the entire wire contents of src into dst and tags dst
// with version. Used when an NF's conflicting action touches the payload
// (the rare 7% of NFs per Table 2), and by the full-copy ablation.
func FullCopy(src, dst *Packet, version uint8) {
	src.CloneInto(dst)
	dst.Meta.Version = version
	// Pre-parse so NFs sharing the copy never write the layout or flow
	// key cache concurrently (they would race even on identical values).
	_ = dst.Parse()
	_, _ = dst.FlowKey()
}
