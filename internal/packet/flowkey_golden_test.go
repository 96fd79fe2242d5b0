package packet

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func key(s, d [4]byte, sp, dp uint16, proto uint8) FlowKey {
	return FlowKey{Src: s, Dst: d, SrcPort: sp, DstPort: dp, Proto: proto}
}

// referenceHash is the historical closure-loop FNV-1a the unrolled
// FlowKey.Hash replaced. Shard and ECMP backend assignment are derived
// from these values, so the unrolled form must stay bit-identical to it
// forever.
func referenceHash(k FlowKey) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	for _, b := range k.Src {
		mix(b)
	}
	for _, b := range k.Dst {
		mix(b)
	}
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	mix(k.Proto)
	return h
}

// TestHashGoldenValues pins literal hash outputs. If these move, every
// persisted shard and backend assignment moves with them.
func TestHashGoldenValues(t *testing.T) {
	cases := []struct {
		k    FlowKey
		hash uint64
	}{
		{key([4]byte{10, 1, 2, 3}, [4]byte{10, 4, 5, 6}, 5000, 53, ProtoUDP), 0xd704fc9c7c402241},
		{key([4]byte{192, 168, 0, 1}, [4]byte{10, 100, 0, 2}, 1024, 80, ProtoTCP), 0x3d64d27b62d31de0},
	}
	for _, c := range cases {
		if got := c.k.Hash(); got != c.hash {
			t.Errorf("Hash(%v) = %#x, want %#x", c.k, got, c.hash)
		}
	}
	sym := key([4]byte{192, 168, 0, 1}, [4]byte{10, 100, 0, 2}, 1024, 80, ProtoTCP)
	if got := sym.SymmetricHash(); got != 0x89f3ea9e246ceda4 {
		t.Errorf("SymmetricHash = %#x, want 0x89f3ea9e246ceda4", got)
	}
}

// TestHashMatchesReference sweeps the unrolled hash against the
// closure-loop reference over a spread of keys.
func TestHashMatchesReference(t *testing.T) {
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			k := key([4]byte{10, byte(a), byte(b), 1}, [4]byte{10, 100, 0, 1}, uint16(1024+a*37), uint16(80+b), ProtoTCP)
			if got, want := k.Hash(), referenceHash(k); got != want {
				t.Fatalf("Hash(%v) = %#x, reference %#x", k, got, want)
			}
			if got, want := k.Reverse().Hash(), referenceHash(k.Reverse()); got != want {
				t.Fatalf("Reverse Hash(%v) = %#x, reference %#x", k, got, want)
			}
		}
	}
}

func TestFromPacket(t *testing.T) {
	p := Build(BuildSpec{
		SrcIP:   netip.MustParseAddr("10.1.2.3"),
		DstIP:   netip.MustParseAddr("10.4.5.6"),
		Proto:   ProtoUDP,
		SrcPort: 5000, DstPort: 53, Size: 80,
	})
	k, err := p.FlowKey()
	if err != nil {
		t.Fatal(err)
	}
	want := key([4]byte{10, 1, 2, 3}, [4]byte{10, 4, 5, 6}, 5000, 53, ProtoUDP)
	if k != want {
		t.Errorf("got %v, want %v", k, want)
	}
}

func TestFromPacketError(t *testing.T) {
	if _, err := New(make([]byte, 4)).FlowKey(); err == nil {
		t.Error("no error for truncated packet")
	}
}

func TestReverse(t *testing.T) {
	k := key([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 10, 20, 6)
	r := k.Reverse()
	if r != key([4]byte{2, 2, 2, 2}, [4]byte{1, 1, 1, 1}, 20, 10, 6) {
		t.Errorf("reverse = %v", r)
	}
	if r.Reverse() != k {
		t.Error("double reverse is not identity")
	}
}

func TestHashDistinguishesFlows(t *testing.T) {
	a := key([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 10, 20, 6)
	variants := []FlowKey{
		key([4]byte{1, 1, 1, 2}, [4]byte{2, 2, 2, 2}, 10, 20, 6),
		key([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 3}, 10, 20, 6),
		key([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 11, 20, 6),
		key([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 10, 21, 6),
		key([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 10, 20, 17),
	}
	for _, v := range variants {
		if v.Hash() == a.Hash() {
			t.Errorf("hash collision between %v and %v", a, v)
		}
	}
}

func TestSymmetricHash(t *testing.T) {
	f := func(a1, a2, b1, b2 byte, sp, dp uint16) bool {
		k := key([4]byte{10, a1, a2, 1}, [4]byte{10, b1, b2, 2}, sp, dp, 6)
		return k.SymmetricHash() == k.Reverse().SymmetricHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFlowKeyCompareAndString: Compare is a total order that is 0
// exactly on ==, ordered field by field, and String is the
// flight recorder's spelling.
func TestFlowKeyCompareAndString(t *testing.T) {
	// Ascending: each key differs from the next in one field, earlier
	// fields outranking later ones.
	keys := []FlowKey{
		key([4]byte{1, 2, 3, 4}, [4]byte{9, 9, 9, 9}, 65535, 65535, 255),
		key([4]byte{1, 2, 3, 5}, [4]byte{0, 0, 0, 0}, 0, 0, 0),
		key([4]byte{1, 2, 3, 5}, [4]byte{0, 0, 0, 1}, 0, 0, 0),
		key([4]byte{1, 2, 3, 5}, [4]byte{0, 0, 0, 1}, 1, 0, 0),
		key([4]byte{1, 2, 3, 5}, [4]byte{0, 0, 0, 1}, 1, 1, 0),
		key([4]byte{1, 2, 3, 5}, [4]byte{0, 0, 0, 1}, 1, 1, 6),
		key([4]byte{10, 0, 0, 0}, [4]byte{0, 0, 0, 0}, 0, 0, 0),
		key([4]byte{200, 0, 0, 0}, [4]byte{0, 0, 0, 0}, 0, 0, 0),
	}
	for i, a := range keys {
		for j, b := range keys {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := a.Compare(b); got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", a, b, got, want)
			}
			if (a.Compare(b) == 0) != (a == b) {
				t.Errorf("Compare(%v, %v) disagrees with ==", a, b)
			}
		}
	}

	for _, c := range []struct {
		k    FlowKey
		want string
	}{
		{key([4]byte{10, 1, 2, 3}, [4]byte{10, 4, 5, 6}, 4242, 80, 6), "10.1.2.3:4242>10.4.5.6:80/6"},
		{key([4]byte{1, 2, 3, 4}, [4]byte{5, 6, 7, 8}, 1, 2, 17), "1.2.3.4:1>5.6.7.8:2/17"},
		{FlowKey{}, "0.0.0.0:0>0.0.0.0:0/0"},
		{key([4]byte{255, 255, 255, 255}, [4]byte{255, 255, 255, 255}, 65535, 65535, 255), "255.255.255.255:65535>255.255.255.255:65535/255"},
	} {
		if got := c.k.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// BenchmarkFlowKeyHash measures the unrolled packed-key hash — the
// per-packet cost of the microflow cache probe and shard selection.
func BenchmarkFlowKeyHash(b *testing.B) {
	fk := key([4]byte{10, 0, 1, 2}, [4]byte{10, 100, 0, 1}, 1033, 80, ProtoTCP)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += fk.Hash()
	}
	benchSink = sink
}

// BenchmarkFlowKeySymmetricHash measures the direction-independent
// variant used for shard assignment.
func BenchmarkFlowKeySymmetricHash(b *testing.B) {
	fk := key([4]byte{10, 0, 1, 2}, [4]byte{10, 100, 0, 1}, 1033, 80, ProtoTCP)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += fk.SymmetricHash()
	}
	benchSink = sink
}

var benchSink uint64
