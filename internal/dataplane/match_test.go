package dataplane

import (
	"testing"

	"nfp/internal/packet"
)

func TestParseMatchRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		spec string // canonical rendering ("" means same as in)
	}{
		{"", "any"},
		{"any", "any"},
		{"src=10.0.0.0/8", ""},
		{"dst=192.168.1.0/24", ""},
		{"src=10.1.2.3", "src=10.1.2.3/32"},
		{"src=10.1.2.3/8", "src=10.0.0.0/8"}, // host bits masked off
		{"sport=80", ""},
		{"dport=443", ""},
		{"proto=tcp", ""},
		{"proto=udp", ""},
		{"proto=47", ""},
		{"proto=6", "proto=tcp"},
		{"src=10.0.0.0/8, dst=172.16.0.0/12, sport=53, dport=53, proto=udp",
			"src=10.0.0.0/8,dst=172.16.0.0/12,sport=53,dport=53,proto=udp"},
	}
	for _, c := range cases {
		m, err := ParseMatch(c.in)
		if err != nil {
			t.Errorf("ParseMatch(%q): %v", c.in, err)
			continue
		}
		want := c.spec
		if want == "" {
			want = c.in
		}
		if got := m.Spec(); got != want {
			t.Errorf("ParseMatch(%q).Spec() = %q, want %q", c.in, got, want)
		}
		again, err := ParseMatch(m.Spec())
		if err != nil {
			t.Errorf("canonical %q does not re-parse: %v", m.Spec(), err)
		} else if again != m {
			t.Errorf("round trip changed the match: %+v -> %+v", m, again)
		}
	}
}

func TestParseMatchErrors(t *testing.T) {
	for _, in := range []string{
		"bogus",
		"src=",
		"src=999.0.0.1/8",
		"sport=0",
		"sport=70000",
		"proto=0",
		"proto=256",
		"nat=1.2.3.4",
		"src=10.0.0.0/8,,dport=80",
	} {
		if m, err := ParseMatch(in); err == nil {
			t.Errorf("ParseMatch(%q) = %+v, want error", in, m)
		}
	}
}

func TestParseMatchCovers(t *testing.T) {
	m, err := ParseMatch("src=10.0.0.0/8,dport=443,proto=tcp")
	if err != nil {
		t.Fatal(err)
	}
	key := packet.FlowKey{
		Src: [4]byte{10, 9, 8, 7}, Dst: [4]byte{1, 1, 1, 1},
		SrcPort: 1234, DstPort: 443, Proto: packet.ProtoTCP,
	}
	if !m.Covers(key) {
		t.Errorf("match %q should cover %+v", m.Spec(), key)
	}
	key.Proto = packet.ProtoUDP
	if m.Covers(key) {
		t.Errorf("match %q should not cover UDP", m.Spec())
	}
}

// FuzzClassify throws arbitrary text at the classifier's match parser:
// parsing must never panic, anything that parses must round-trip
// through its canonical Spec() spelling, and the parsed match must
// classify flows identically to its canonical re-parse.
func FuzzClassify(f *testing.F) {
	f.Add("")
	f.Add("any")
	f.Add("src=10.0.0.0/8")
	f.Add("dst=192.168.0.0/16,proto=udp")
	f.Add("src=10.1.2.3,sport=80,dport=443,proto=tcp")
	f.Add("proto=255")
	f.Add("src=::1/128")
	f.Add("src=10.0.0.0/8, dst=172.16.0.0/12, sport=53")
	f.Add("sport=,dport=")
	f.Add("=,=,=")
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseMatch(spec)
		if err != nil {
			return
		}
		canon := m.Spec()
		again, err := ParseMatch(canon)
		if err != nil {
			t.Fatalf("canonical spec %q does not re-parse: %v", canon, err)
		}
		if again != m {
			t.Fatalf("round trip changed the match: %+v -> %+v (spec %q)", m, again, canon)
		}
		if again.Spec() != canon {
			t.Fatalf("Spec() is not a fixed point: %q -> %q", canon, again.Spec())
		}
		// Classification behavior must survive the round trip.
		keys := []packet.FlowKey{
			{Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{192, 168, 0, 1},
				SrcPort: 80, DstPort: 443, Proto: packet.ProtoTCP},
			{Src: [4]byte{172, 16, 5, 5}, Dst: [4]byte{8, 8, 8, 8},
				SrcPort: 53, DstPort: 53, Proto: packet.ProtoUDP},
			{}, // the zero key: 0.0.0.0:0 on both ends, any protocol
		}
		for _, k := range keys {
			if m.Covers(k) != again.Covers(k) {
				t.Fatalf("Covers(%+v) disagrees after round trip of %q", k, spec)
			}
		}
	})
}
