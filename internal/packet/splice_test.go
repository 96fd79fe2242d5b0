package packet

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"unsafe"
)

// TestPacketSize holds the descriptor in its 160-byte size class: the
// slot offset sits in the padding after the flags. Descriptors repacked
// to 128 B made fwd64 slower (DESIGN.md §16, "Rejected in prototyping").
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 152 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 152", got)
	}
}

// inSlot returns a packet whose buffer is a slot of size bytes with the
// frame head bytes in, holding frame.
func inSlot(frame []byte, head, size int) (*Packet, []byte) {
	slot := make([]byte, size)
	p := New(slot)
	p.Reset(size - head)
	copy(p.Buffer(), frame)
	p.SetLen(len(frame))
	return p, slot
}

// randomFrame draws an IPv4 frame with a valid header checksum: TCP, UDP
// or an opaque protocol, ihl 5–15 (the options random bytes) and a
// payload of up to maxPayload bytes.
func randomFrame(rng *rand.Rand, maxPayload int) []byte {
	sp := BuildSpec{
		SrcIP:   netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), 1}),
		DstIP:   netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(256))}),
		Proto:   []uint8{ProtoTCP, ProtoUDP}[rng.Intn(2)],
		SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)),
		TTL:     uint8(1 + rng.Intn(255)),
		Payload: make([]byte, rng.Intn(maxPayload+1)),
	}
	rng.Read(sp.Payload)
	p := New(make([]byte, 2048))
	BuildInto(p, sp)
	if rng.Intn(4) == 0 {
		p.Bytes()[EthHeaderLen+9] = 1 // ICMP: everything past IP is payload
	}
	if opts := rng.Intn(11); opts > 0 {
		o := make([]byte, 4*opts)
		rng.Read(o)
		if err := p.InsertAt(EthHeaderLen+IPv4HeaderLen, o); err != nil {
			panic(err)
		}
		p.Bytes()[EthHeaderLen] = 0x40 | byte(5+opts)
	}
	p.Invalidate()
	if err := p.Parse(); err != nil {
		panic(err)
	}
	p.SetTotalLen(uint16(p.Len() - EthHeaderLen)) // and the checksum
	return append([]byte(nil), p.Bytes()...)
}

// oldInsertAH is the splice InsertAH replaces: insert, flip the
// protocol, parse again, set the total length and re-sum the header.
func oldInsertAH(p *Packet, hdr []byte) error {
	l, err := p.Layout()
	if err != nil {
		return err
	}
	ihl := int(p.buf[l.L3Off]&0x0f) * 4
	h := append([]byte(nil), hdr...)
	h[0] = p.buf[l.L3Off+9]
	if err := p.InsertAt(l.L3Off+ihl, h); err != nil {
		return err
	}
	p.Bytes()[l.L3Off+9] = ProtoAH
	p.Invalidate()
	p.SetTotalLen(uint16(p.Len() - EthHeaderLen))
	return nil
}

// oldRemoveAH is the splice RemoveAH replaces.
func oldRemoveAH(p *Packet) error {
	l, err := p.Layout()
	if err != nil {
		return err
	}
	next := p.buf[l.AHOff]
	if err := p.RemoveAt(l.AHOff, AHHeaderLen); err != nil {
		return err
	}
	p.Bytes()[l.L3Off+9] = next
	p.Invalidate()
	p.SetTotalLen(uint16(p.Len() - EthHeaderLen))
	return nil
}

// sameAsFresh fails unless got's bytes equal want's and got's cached
// layout and key equal what a fresh parse of want gives.
func sameAsFresh(t *testing.T, what string, got, want *Packet) {
	t.Helper()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: bytes differ\n got %x\nwant %x", what, got.Bytes(), want.Bytes())
	}
	fresh := New(append([]byte(nil), want.Bytes()...))
	if err := fresh.Parse(); err != nil {
		t.Fatalf("%s: result does not parse: %v", what, err)
	}
	if !got.layout.Parsed || !got.fkeyOK {
		if err := got.Parse(); err != nil {
			t.Fatal(err)
		}
	}
	if got.layout != fresh.layout || got.fkey != fresh.fkey {
		t.Fatalf("%s: cached layout %+v key %v, a fresh parse gives %+v %v",
			what, got.layout, got.fkey, fresh.layout, fresh.fkey)
	}
}

// TestAHSpliceMatchesOldSequence holds InsertAH and RemoveAH to the
// insert + flip + parse + re-sum sequences they replace, byte for byte
// with the same layout and key, over random frames (options, TCP, UDP,
// opaque protocols) at random headroom, and the pair to a round trip.
func TestAHSpliceMatchesOldSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 2000; round++ {
		frame := randomFrame(rng, 1500)
		head := rng.Intn(65)
		hdr := make([]byte, AHHeaderLen)
		rng.Read(hdr)
		got, _ := inSlot(frame, head, head+2048)
		want, _ := inSlot(frame, 0, 2048)
		if rng.Intn(2) == 0 {
			_ = got.Parse() // warm or cold: the splice parses itself
		}
		if err := got.InsertAH(hdr); err != nil {
			t.Fatalf("round %d: InsertAH: %v", round, err)
		}
		if err := oldInsertAH(want, hdr); err != nil {
			t.Fatal(err)
		}
		sameAsFresh(t, "insert", got, want)
		if err := got.InsertAH(hdr); err == nil {
			t.Fatalf("round %d: a second AH was accepted", round)
		}
		if err := got.RemoveAH(); err != nil {
			t.Fatalf("round %d: RemoveAH: %v", round, err)
		}
		if err := oldRemoveAH(want); err != nil {
			t.Fatal(err)
		}
		sameAsFresh(t, "remove", got, want)
		if !bytes.Equal(got.Bytes(), frame) {
			t.Fatalf("round %d: round trip changed the frame", round)
		}
		if err := got.RemoveAH(); err == nil {
			t.Fatalf("round %d: RemoveAH without an AH accepted", round)
		}
	}
}

// TestAHSpliceRefusesWithoutRoom: a frame with neither headroom nor
// tailroom for the header is refused and left as it was.
func TestAHSpliceRefusesWithoutRoom(t *testing.T) {
	frame := Build(testSpec()).Bytes()
	p := New(append([]byte(nil), frame...))
	if err := p.InsertAH(make([]byte, AHHeaderLen)); err == nil {
		t.Fatal("InsertAH without room accepted")
	}
	if !bytes.Equal(p.Bytes(), frame) || p.HasAH() {
		t.Fatal("refused InsertAH changed the frame")
	}
}

// TestInsertMovesTheShorterSide: with headroom, a header near the front
// moves the bytes in front of it (the slot's tail stays untouched), one
// near the end moves the bytes behind it; without headroom the bytes
// behind always move. Reset puts the frame back at its headroom.
func TestInsertMovesTheShorterSide(t *testing.T) {
	frame := Build(BuildSpec{SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"), Size: 1000}).Bytes()
	p, slot := inSlot(frame, 64, 2048)
	slot[64+len(frame)] = 0xee // the first tailroom byte
	if err := p.InsertAt(EthHeaderLen, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if got := len(slot) - len(p.Buffer()); got != 48 {
		t.Fatalf("front insert: headroom %d, want 48", got)
	}
	if slot[64+len(frame)] != 0xee {
		t.Fatal("front insert moved the payload")
	}
	if err := p.InsertAt(p.Len()-10, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if got := len(slot) - len(p.Buffer()); got != 48 {
		t.Fatalf("back insert: headroom %d, want 48", got)
	}
	if err := p.RemoveAt(EthHeaderLen, 16); err != nil {
		t.Fatal(err)
	}
	if got := len(slot) - len(p.Buffer()); got != 64 {
		t.Fatalf("front remove: headroom %d, want 64", got)
	}
	p.Reset(len(slot) - 64)
	if len(p.Buffer()) != len(slot)-64 || &p.Buffer()[0] != &slot[64] || p.Len() != 0 {
		t.Fatal("Reset did not restore the headroom")
	}

	s := New(append(make([]byte, 0, 2048), frame...)[:2048])
	s.SetLen(len(frame))
	for _, off := range []int{0, EthHeaderLen, len(frame)} {
		if err := s.InsertAt(off, []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveAt(off, 4); err != nil {
			t.Fatal(err)
		}
		if len(s.Buffer()) != 2048 || !bytes.Equal(s.Bytes(), frame) {
			t.Fatalf("standalone edit at %d moved the frame's start", off)
		}
	}
}

// FuzzSplice holds InsertAt and RemoveAt, at any headroom, to a naive
// copy-based splice of the same bytes: equal bytes, length and parsed
// layout after every edit, an edit refused exactly when neither side
// has room (and then nothing changes), and the frame never leaving its
// slot.
func FuzzSplice(f *testing.F) {
	tcp := Build(BuildSpec{SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"), SrcPort: 1, DstPort: 2, Size: 200}).Bytes()
	f.Add(tcp, uint8(64), uint8(0), []byte{0, 34, 24, 1, 34, 24})
	f.Add(tcp, uint8(0), uint8(30), []byte{0, 14, 16, 1, 14, 16, 0, 200, 8})
	f.Add([]byte{1, 2, 3}, uint8(7), uint8(3), []byte{0, 1, 9, 1, 0, 2, 0, 3, 4})
	f.Add(tcp[:60], uint8(20), uint8(100), []byte{0, 0, 20, 0, 80, 90, 1, 50, 40})
	f.Fuzz(func(t *testing.T, frame []byte, headroom, tailroom uint8, ops []byte) {
		head := int(headroom) % 65
		size := head + len(frame) + int(tailroom)
		p, slot := inSlot(frame, head, size)
		model := append([]byte(nil), frame...)
		for len(ops) >= 3 {
			insert, off, n := ops[0]&1 == 0, int(ops[1]), int(ops[2])
			ops = ops[3:]
			room := len(slot) - len(p.Buffer())
			tail := len(p.Buffer()) - p.Len()
			before := append([]byte(nil), p.Bytes()...)
			var err error
			if insert {
				data := bytes.Repeat([]byte{byte(n) ^ 0x5a}, n)
				err = p.InsertAt(off, data)
				ok := off <= len(model) && (n <= room || n <= tail)
				if (err == nil) != ok {
					t.Fatalf("insert %d at %d (wire %d, headroom %d, tailroom %d): err %v", n, off, len(model), room, tail, err)
				}
				if ok {
					model = append(model[:off], append(data, model[off:]...)...)
				}
			} else {
				err = p.RemoveAt(off, n)
				ok := off+n <= len(model)
				if (err == nil) != ok {
					t.Fatalf("remove %d at %d (wire %d): err %v", n, off, len(model), err)
				}
				if ok {
					model = append(model[:off], model[off+n:]...)
				}
			}
			if err != nil && !bytes.Equal(p.Bytes(), before) {
				t.Fatal("a refused edit changed the frame")
			}
			if !bytes.Equal(p.Bytes(), model) || p.Len() != len(model) {
				t.Fatalf("bytes %x, naive splice %x", p.Bytes(), model)
			}
			if b := p.Buffer(); len(b) > 0 && &b[len(b)-1] != &slot[len(slot)-1] {
				t.Fatal("the buffer no longer ends where its slot does")
			}
			if head == 0 && len(p.Buffer()) != len(slot) {
				t.Fatal("a frame without headroom moved its first byte")
			}
			naive := New(append([]byte(nil), model...))
			gotErr, wantErr := p.Parse(), naive.Parse()
			if gotErr != wantErr || p.layout != naive.layout || (gotErr == nil && p.fkey != naive.fkey) {
				t.Fatalf("layout %+v (%v), naive %+v (%v)", p.layout, gotErr, naive.layout, wantErr)
			}
		}
	})
}
