package netflow

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"nfp/internal/nf"
	"nfp/internal/packet"
)

// datagramWriter collects each Write call as one datagram (UDP-like).
type datagramWriter struct {
	datagrams [][]byte
}

func (d *datagramWriter) Write(b []byte) (int, error) {
	d.datagrams = append(d.datagrams, append([]byte(nil), b...))
	return len(b), nil
}

func feedMonitor(m *nf.Monitor, flows int, perFlow int) {
	for f := 0; f < flows; f++ {
		for i := 0; i < perFlow; i++ {
			m.Process(packet.Build(packet.BuildSpec{
				SrcIP:   netip.AddrFrom4([4]byte{10, 0, 1, byte(1 + f)}),
				DstIP:   netip.MustParseAddr("10.9.0.1"),
				Proto:   packet.ProtoTCP,
				SrcPort: uint16(1000 + f), DstPort: 443,
				Size: 100,
			}))
		}
	}
}

func TestExportDecodeRoundTrip(t *testing.T) {
	m := nf.NewMonitor()
	feedMonitor(m, 5, 3)

	var w datagramWriter
	e := NewExporter(&w, 7)
	boot := time.Unix(1000, 0)
	e.SetClock(func() time.Time { return time.Unix(1060, 500) }, boot)

	n, err := e.Export(m)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(w.datagrams) != 1 {
		t.Fatalf("datagrams = %d", len(w.datagrams))
	}
	h, records, err := Decode(w.datagrams[0])
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 5 || h.EngineID != 7 || h.FlowSequence != 0 {
		t.Errorf("header = %+v", h)
	}
	if h.SysUptimeMS != 60000 {
		t.Errorf("uptime = %d ms", h.SysUptimeMS)
	}
	for _, r := range records {
		if r.Packets != 3 || r.Octets != 300 {
			t.Errorf("record = %+v", r)
		}
		if r.Flow.Proto != packet.ProtoTCP || r.Flow.DstPort != 443 {
			t.Errorf("record tuple = %+v", r)
		}
		// Decoded keys map back onto the monitor's counters.
		st, ok := m.Flow(r.Key())
		if !ok || st.Packets != 3 {
			t.Errorf("decoded key %v not in monitor", r.Key())
		}
	}
}

func TestExportSplitsDatagrams(t *testing.T) {
	m := nf.NewMonitor()
	feedMonitor(m, 65, 1) // 65 flows > 2×30

	var w datagramWriter
	e := NewExporter(&w, 1)
	n, err := e.Export(m)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(w.datagrams) != 3 {
		t.Fatalf("datagrams = %d, want 3", n)
	}
	counts := []uint16{30, 30, 5}
	var seq []uint32
	total := 0
	for i, dg := range w.datagrams {
		h, recs, err := Decode(dg)
		if err != nil {
			t.Fatal(err)
		}
		if h.Count != counts[i] || len(recs) != int(counts[i]) {
			t.Errorf("datagram %d count = %d, want %d", i, h.Count, counts[i])
		}
		seq = append(seq, h.FlowSequence)
		total += len(recs)
	}
	// Flow sequence accumulates across datagrams.
	if seq[0] != 0 || seq[1] != 30 || seq[2] != 60 {
		t.Errorf("sequences = %v", seq)
	}
	if total != 65 {
		t.Errorf("records = %d", total)
	}
	dgs, flows := e.Stats()
	if dgs != 3 || flows != 65 {
		t.Errorf("stats = %d/%d", dgs, flows)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("nil datagram accepted")
	}
	bad := make([]byte, HeaderLen)
	bad[1] = 9 // version 9
	if _, _, err := Decode(bad); err == nil {
		t.Error("wrong version accepted")
	}
	// Count says 2 records but body holds none.
	short := make([]byte, HeaderLen)
	short[1] = Version
	short[3] = 2
	if _, _, err := Decode(short); err == nil {
		t.Error("inconsistent length accepted")
	}
}

func TestSaturation(t *testing.T) {
	if saturate32(1<<40) != 0xffffffff {
		t.Error("no saturation")
	}
	if saturate32(7) != 7 {
		t.Error("small value mangled")
	}
}

func TestExportEmptyMonitor(t *testing.T) {
	var w datagramWriter
	e := NewExporter(&w, 1)
	n, err := e.Export(nf.NewMonitor())
	if err != nil || n != 0 {
		t.Errorf("empty export = %d, %v", n, err)
	}
	if len(w.datagrams) != 0 {
		t.Error("datagram written for empty monitor")
	}
}

func TestWriterErrorPropagates(t *testing.T) {
	m := nf.NewMonitor()
	feedMonitor(m, 1, 1)
	e := NewExporter(failWriter{}, 1)
	if _, err := e.Export(m); err == nil {
		t.Error("writer error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, bytes.ErrTooLarge }
