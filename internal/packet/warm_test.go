package packet

import (
	"bytes"
	"net/netip"
	"testing"
)

// TestWarmHeaders: the warm pass reads and nothing else. Frames, layout
// and flow key are byte-identical afterwards; nil, empty, short and nil
// (drop-intention) packets are skipped; an unparsed packet is still
// unparsed; the return is the OR of the checksum bytes of the frames it
// read; and it allocates nothing.
func TestWarmHeaders(t *testing.T) {
	spec := func(proto uint8, size int, i byte) BuildSpec {
		return BuildSpec{
			SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, i}), DstIP: netip.AddrFrom4([4]byte{192, 0, 2, i}),
			Proto: proto, SrcPort: 1000 + uint16(i), DstPort: 80, Size: size,
		}
	}
	tcp, udp := Build(spec(ProtoTCP, 64, 1)), Build(spec(ProtoUDP, 300, 2))
	hdr := New(make([]byte, 128))
	HeaderOnlyCopy(Build(spec(ProtoTCP, 900, 3)), hdr, 2)
	unparsed := New(append(make([]byte, 0, 2048), Build(spec(ProtoTCP, 64, 4)).Bytes()...))
	short := New(append([]byte(nil), tcp.Bytes()[:EthHeaderLen+IPv4HeaderLen-1]...))
	burst := []*Packet{tcp, nil, udp, hdr, unparsed, New(nil), New([]byte{}), short, NewNil(Meta{PID: 7})}
	read := []*Packet{tcp, udp, hdr, unparsed}

	type snap struct {
		bytes  []byte
		layout Layout
		fkey   FlowKey
		fkeyOK bool
	}
	before := make([]snap, len(burst))
	for i, p := range burst {
		if p != nil {
			before[i] = snap{append([]byte(nil), p.buf...), p.layout, p.fkey, p.fkeyOK}
		}
	}

	var want byte
	for _, p := range read {
		want |= p.Bytes()[EthHeaderLen+10]
	}
	if got := WarmHeaders(burst); got != want {
		t.Errorf("WarmHeaders = %#x, want the OR of the read frames' checksum bytes %#x", got, want)
	}
	for i, p := range burst {
		if p == nil {
			continue
		}
		b := before[i]
		if !bytes.Equal(p.buf, b.bytes) || p.layout != b.layout || p.fkey != b.fkey || p.fkeyOK != b.fkeyOK {
			t.Errorf("packet %d: the warm pass changed the frame, layout or key", i)
		}
	}
	if unparsed.layout.Parsed || unparsed.fkeyOK {
		t.Error("the warm pass parsed an unparsed packet")
	}
	if a := testing.AllocsPerRun(100, func() { WarmHeaders(burst) }); a != 0 {
		t.Errorf("WarmHeaders allocates %v times per burst", a)
	}
}
