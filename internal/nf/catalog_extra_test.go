package nf

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"nfp/internal/packet"
)

func TestGatewaySessions(t *testing.T) {
	g := NewGateway()
	// Two directions of one call share a session context.
	g.Process(tcpPacket("10.0.0.1", "10.0.0.2", 5060, 5060, nil))
	g.Process(tcpPacket("10.0.0.2", "10.0.0.1", 5060, 5060, nil))
	g.Process(tcpPacket("10.0.0.3", "10.0.0.4", 5060, 5060, nil))
	if g.Sessions() != 2 {
		t.Errorf("sessions = %d, want 2", g.Sessions())
	}
	s, ok := g.Session(netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("10.0.0.1"))
	if !ok || s.Packets != 2 {
		t.Errorf("session = %+v, %v", s, ok)
	}
	if _, ok := g.Session(netip.MustParseAddr("1.1.1.1"), netip.MustParseAddr("2.2.2.2")); ok {
		t.Error("phantom session")
	}
	// Packets pass unmodified (profile: read-only).
	p := tcpPacket("10.0.0.9", "10.0.0.8", 1, 2, []byte("media"))
	before := append([]byte(nil), p.Bytes()...)
	if g.Process(p) != Pass {
		t.Error("verdict")
	}
	if !bytes.Equal(before, p.Bytes()) {
		t.Error("gateway modified the packet")
	}
}

func TestCacheHitsAndEviction(t *testing.T) {
	c := NewCache(2)
	req := func(dst string, payload string) *packet.Packet {
		return tcpPacket("10.0.0.1", dst, 1234, 80, []byte(payload))
	}
	c.Process(req("10.1.0.1", "GET /a"))
	c.Process(req("10.1.0.1", "GET /a"))
	c.Process(req("10.1.0.1", "GET /b"))
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
	// Same payload toward a different origin is a different object.
	c.Process(req("10.1.0.2", "GET /a"))
	if _, m := c.Stats(); m != 3 {
		t.Errorf("misses = %d", m)
	}
	// Capacity 2: /a for the first origin was evicted (FIFO).
	c.Process(req("10.1.0.1", "GET /a"))
	if _, m := c.Stats(); m != 4 {
		t.Errorf("after eviction misses = %d", m)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	// Empty payloads are ignored.
	c.Process(tcpPacket("10.0.0.1", "10.1.0.1", 1, 2, nil))
}

func TestProxyRewritesAndStamps(t *testing.T) {
	x, err := NewProxy(4)
	if err != nil {
		t.Fatal(err)
	}
	// Traffic not addressed to the proxy passes untouched.
	direct := tcpPacket("10.0.0.1", "10.9.9.9", 1000, 80, []byte("hello"))
	x.Process(direct)
	if direct.DstIP() != netip.MustParseAddr("10.9.9.9") {
		t.Error("direct traffic rewritten")
	}
	// Proxy-addressed traffic goes to a flow-stable origin with a tag.
	p := tcpPacket("10.0.0.1", "10.50.0.1", 1000, 80, []byte("GET /page HTTP/1.1"))
	k, _ := p.FlowKey()
	want := x.Origin(k)
	x.Process(p)
	if p.DstIP() != want {
		t.Errorf("dst = %v, want %v", p.DstIP(), want)
	}
	if !strings.HasPrefix(string(p.Payload()), "VIA0") {
		t.Errorf("payload = %q, want VIA0 stamp", p.Payload())
	}
	if len(p.Payload()) != len("GET /page HTTP/1.1") {
		t.Error("proxy changed payload length")
	}
	proxied, dir := x.Stats()
	if proxied != 1 || dir != 1 {
		t.Errorf("stats = %d/%d", proxied, dir)
	}
}

func TestCompressorRoundTrip(t *testing.T) {
	c, err := NewCompressor(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(strings.Repeat("compressible web content ", 20))
	p := tcpPacket("10.0.0.1", "10.0.0.2", 1, 2, payload)
	origLen := p.Len()
	if c.Process(p) != Pass {
		t.Fatal("verdict")
	}
	if p.Len() >= origLen {
		t.Fatalf("packet did not shrink: %d -> %d", origLen, p.Len())
	}
	if int(p.TotalLen()) != p.Len()-packet.EthHeaderLen {
		t.Error("IP length not fixed after compression")
	}
	compressed, _, saved := c.Stats()
	if compressed != 1 || saved == 0 {
		t.Errorf("stats = %d saved=%d", compressed, saved)
	}
	// Idempotent: a compressed payload is not recompressed.
	lenAfter := p.Len()
	c.Process(p)
	if p.Len() != lenAfter {
		t.Error("double compression")
	}
	if err := c.Decompress(p); err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(p.Payload(), payload) {
		t.Error("payload corrupted by round trip")
	}
	if p.Len() != origLen {
		t.Errorf("len = %d, want %d", p.Len(), origLen)
	}
}

func TestCompressorSkipsIncompressible(t *testing.T) {
	c, _ := NewCompressor(0)
	// Tiny payloads are skipped.
	small := tcpPacket("10.0.0.1", "10.0.0.2", 1, 2, []byte("abc"))
	c.Process(small)
	if string(small.Payload()) != "abc" {
		t.Error("tiny payload modified")
	}
	// High-entropy payloads don't shrink; packet stays intact.
	rnd := make([]byte, 256)
	for i := range rnd {
		rnd[i] = byte(i*131 + 17)
	}
	p := tcpPacket("10.0.0.1", "10.0.0.2", 1, 2, rnd)
	before := p.Len()
	c.Process(p)
	if p.Len() > before {
		t.Error("packet grew")
	}
	if err := c.Decompress(tcpPacket("1.1.1.1", "2.2.2.2", 1, 2, []byte("plain"))); err == nil {
		t.Error("Decompress accepted uncompressed payload")
	}
	if _, err := NewCompressor(99); err == nil {
		t.Error("bad level accepted")
	}
}

func TestShaperTokenBucket(t *testing.T) {
	// Deterministic clock.
	now := time.Unix(0, 0)
	s := NewShaper(1000, 4) // 1000 pps, burst 4
	s.now = func() time.Time { return now }

	p := tcpPacket("10.0.0.1", "10.0.0.2", 1, 2, nil)
	// The burst admits 4 packets instantly.
	for i := 0; i < 4; i++ {
		if s.Process(p) != Pass {
			t.Fatal("burst packet delayed")
		}
	}
	_, delayed := s.Stats()
	if delayed != 0 {
		t.Fatalf("delayed during burst: %d", delayed)
	}
	// The 5th must wait for a refill; advance the clock from another
	// goroutine's perspective by making now move on each call.
	calls := 0
	s.now = func() time.Time {
		calls++
		now = now.Add(2 * time.Millisecond) // 2ms = 2 tokens at 1000pps
		return now
	}
	if s.Process(p) != Pass {
		t.Fatal("packet lost")
	}
	if s.shaped != 5 {
		t.Errorf("shaped = %d", s.shaped)
	}
}

func TestShaperDisabled(t *testing.T) {
	s := NewShaper(0, 0)
	p := tcpPacket("10.0.0.1", "10.0.0.2", 1, 2, nil)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		s.Process(p)
	}
	if time.Since(start) > time.Second {
		t.Error("disabled shaper delayed packets")
	}
	shaped, _ := s.Stats()
	if shaped != 1000 {
		t.Errorf("shaped = %d", shaped)
	}
}
