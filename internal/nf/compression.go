package nf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// compMagic marks a payload as compressed by this NF; the 4-byte magic
// is followed by the 4-byte original payload length.
var compMagic = [4]byte{0xc0, 0x4d, 0x50, 0x52} // "CMPR"-ish

// Compressor models Table 2's compression NF (Cisco IOS payload
// compression): it DEFLATE-compresses TCP/UDP payloads in place when
// that shrinks them, prefixing a small header so a downstream
// Decompress can restore the original bytes. Per its profile it reads
// and writes the payload only — the packet's header structure never
// changes, though the payload (and hence total) length may shrink.
type Compressor struct {
	level      int
	compressed uint64
	skipped    uint64
	savedBytes uint64
}

// NewCompressor creates a compressor at the given flate level (1-9;
// 0 picks flate.BestSpeed, matching a router's budget).
func NewCompressor(level int) (*Compressor, error) {
	if level == 0 {
		level = flate.BestSpeed
	}
	if level < flate.BestSpeed || level > flate.BestCompression {
		return nil, fmt.Errorf("compression: invalid level %d", level)
	}
	return &Compressor{level: level}, nil
}

// Name implements NF.
func (c *Compressor) Name() string { return nfa.NFCompress }

// Process compresses the payload in place when profitable.
func (c *Compressor) Process(p *packet.Packet) Verdict {
	if err := p.Parse(); err != nil {
		return Pass
	}
	payload := p.Payload()
	if len(payload) <= len(compMagic)+4 || isCompressed(payload) {
		c.skipped++
		return Pass
	}
	var buf bytes.Buffer
	buf.Write(compMagic[:])
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(payload)))
	buf.Write(lenb[:])
	w, err := flate.NewWriter(&buf, c.level)
	if err != nil {
		c.skipped++
		return Pass
	}
	if _, err := w.Write(payload); err != nil || w.Close() != nil {
		c.skipped++
		return Pass
	}
	if buf.Len() >= len(payload) {
		c.skipped++ // incompressible; leave as is
		return Pass
	}
	// Shrink the payload in place: overwrite the prefix, trim the rest.
	r, _ := p.FieldRange(packet.FieldPayload)
	copy(p.Buffer()[r.Off:], buf.Bytes())
	if err := p.RemoveAt(r.Off+buf.Len(), len(payload)-buf.Len()); err != nil {
		c.skipped++
		return Pass
	}
	p.SetTotalLen(uint16(p.Len() - packet.EthHeaderLen))
	p.UpdateL4Checksum()
	c.compressed++
	c.savedBytes += uint64(len(payload) - buf.Len())
	return Pass
}

// Decompress restores a payload compressed by Process. It returns an
// error for packets that do not carry the compression header or whose
// buffer cannot hold the inflated payload.
func (c *Compressor) Decompress(p *packet.Packet) error {
	if err := p.Parse(); err != nil {
		return err
	}
	payload := p.Payload()
	if !isCompressed(payload) {
		return fmt.Errorf("compression: payload is not compressed")
	}
	origLen := int(binary.BigEndian.Uint32(payload[4:8]))
	inflated, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload[8:])))
	if err != nil {
		return fmt.Errorf("compression: %w", err)
	}
	if len(inflated) != origLen {
		return fmt.Errorf("compression: inflated %d bytes, header says %d", len(inflated), origLen)
	}
	r, _ := p.FieldRange(packet.FieldPayload)
	if err := p.RemoveAt(r.Off, r.Len); err != nil {
		return err
	}
	if err := p.InsertAt(r.Off, inflated); err != nil {
		return err
	}
	p.SetTotalLen(uint16(p.Len() - packet.EthHeaderLen))
	p.UpdateL4Checksum()
	return nil
}

func isCompressed(payload []byte) bool {
	return len(payload) >= 8 && bytes.Equal(payload[:4], compMagic[:])
}

// Stats returns (compressed, skipped, bytes saved).
func (c *Compressor) Stats() (compressed, skipped, saved uint64) {
	return c.compressed, c.skipped, c.savedBytes
}
