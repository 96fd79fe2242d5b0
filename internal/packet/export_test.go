package packet

// FixIPChecksum re-sums p's IPv4 header checksum from the bytes: the
// slow path the external tests hold the incremental setters to.
func FixIPChecksum(p *Packet) { p.fixIPChecksum(p.mustLayout()) }
