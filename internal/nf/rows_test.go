package nf

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// TestRewritersStayInTheirRows holds the tuple rewriters, lb and nat,
// to their action-table rows: driven in bursts over random TCP and UDP
// frames (some AH-encapsulated, and for nat replies to its external
// address, bound and unsolicited), every byte either changes lies in a
// field its row writes or in the IPv4 or L4 checksum the rewrite must
// carry; lb never drops; nat drops only because its row has Drop.
func TestRewritersStayInTheirRows(t *testing.T) {
	vpn, err := NewVPN(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{nfa.NFLB, nfa.NFNAT} {
		t.Run(name, func(t *testing.T) {
			n, err := NewRegistry().New(name)
			if err != nil {
				t.Fatal(err)
			}
			prof, _ := nfa.LookupProfile(name)
			nat, isNAT := n.(*NAT)
			rng := rand.New(rand.NewSource(1))
			var replies []packet.FlowKey // nat's translated keys, to reply to
			changed, drops, restored := 0, 0, 0
			for round := 0; round < 200; round++ {
				burst := make([]*packet.Packet, 1+rng.Intn(32))
				before := make([][]byte, len(burst))
				for i := range burst {
					k := rowsKey(rng)
					if isNAT {
						switch r := rng.Intn(4); {
						case r == 0 && len(replies) > 0:
							k = replies[rng.Intn(len(replies))].Reverse()
						case r == 1:
							k.Dst = nat.External().As4() // unsolicited, or another protocol's port
						}
					}
					p := packet.New(make([]byte, 2048))
					payload := make([]byte, rng.Intn(100))
					rng.Read(payload)
					packet.BuildInto(p, packet.BuildSpec{
						SrcIP: netip.AddrFrom4(k.Src), DstIP: netip.AddrFrom4(k.Dst),
						Proto: k.Proto, SrcPort: k.SrcPort, DstPort: k.DstPort, Payload: payload,
					})
					if rng.Intn(8) == 0 {
						vpn.Process(p)
					}
					burst[i], before[i] = p, append([]byte(nil), p.Bytes()...)
				}
				verdicts := make([]Verdict, len(burst))
				ProcessAll(n, burst, verdicts)
				for i, p := range burst {
					if verdicts[i] == Drop {
						drops++
						if !prof.Drops() {
							t.Fatalf("packet %v dropped; %s's row has no Drop", p, name)
						}
					}
					if p.Len() != len(before[i]) {
						t.Fatalf("%s changed a frame's length %d -> %d", name, len(before[i]), p.Len())
					}
					allowed := rowsWritable(t, p, prof)
					for off, b := range p.Bytes() {
						if b == before[i][off] {
							continue
						}
						changed++
						if !allowed[off] {
							t.Fatalf("%s wrote byte %d, outside its row's fields and the checksums\nbefore %x\nafter  %x",
								name, off, before[i], p.Bytes())
						}
					}
					if isNAT && verdicts[i] == Pass {
						if k, _ := p.FlowKey(); k.Src == nat.External().As4() {
							replies = append(replies, k)
						}
						if [4]byte(before[i][packet.EthHeaderLen+16:]) == nat.External().As4() {
							restored++
						}
					}
				}
			}
			if changed == 0 {
				t.Fatalf("%s rewrote nothing: the test is vacuous", name)
			}
			if isNAT && (drops == 0 || restored == 0) {
				t.Fatalf("nat dropped %d and restored %d replies: both paths must be driven", drops, restored)
			}
		})
	}
}

func rowsKey(rng *rand.Rand) packet.FlowKey {
	k := packet.FlowKey{
		SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: packet.ProtoTCP,
	}
	binary.BigEndian.PutUint32(k.Src[:], rng.Uint32())
	binary.BigEndian.PutUint32(k.Dst[:], rng.Uint32())
	if rng.Intn(2) == 0 {
		k.Proto = packet.ProtoUDP
	}
	return k
}

// rowsWritable marks the bytes of p the row may change: every written
// field's range, the IPv4 header checksum and the TCP/UDP checksum.
func rowsWritable(t *testing.T, p *packet.Packet, prof nfa.Profile) []bool {
	t.Helper()
	allowed := make([]bool, p.Len())
	mark := func(off, n int) {
		for i := off; i < off+n; i++ {
			allowed[i] = true
		}
	}
	for _, f := range prof.WriteSet() {
		if r, ok := p.FieldRange(f); ok {
			mark(r.Off, r.Len)
		}
	}
	ip, _ := p.FieldRange(packet.FieldIPHeader)
	mark(ip.Off+10, 2)
	if l4, ok := p.FieldRange(packet.FieldL4Header); ok {
		if p.Protocol() == packet.ProtoTCP {
			mark(l4.Off+16, 2)
		} else {
			mark(l4.Off+6, 2)
		}
	}
	return allowed
}
