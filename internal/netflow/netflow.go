// Package netflow implements NetFlow v5 export — the protocol behind
// the paper's Monitor NF ("Monitor | NetFlow [12]", Table 2). The
// Monitor accumulates per-flow counters on the fast path; this package
// packs its snapshots into standard v5 export datagrams that any
// collector (nfdump, ntopng, …) can consume.
package netflow

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"nfp/internal/nf"
	"nfp/internal/packet"
)

// V5 wire geometry.
const (
	Version       = 5
	HeaderLen     = 24
	RecordLen     = 48
	MaxPerPacket  = 30 // v5 maximum records per datagram
	maxPacketSize = HeaderLen + MaxPerPacket*RecordLen
)

// Header is the NetFlow v5 packet header.
type Header struct {
	Count        uint16
	SysUptimeMS  uint32
	UnixSecs     uint32
	UnixNsecs    uint32
	FlowSequence uint32
	EngineType   uint8
	EngineID     uint8
	Sampling     uint16
}

// Record is one NetFlow v5 flow record: the flow's 5-tuple and the
// fields NFP's monitor populates (AS/mask/interface fields are zero as
// on a host exporter).
type Record struct {
	Flow     packet.FlowKey
	Packets  uint32
	Octets   uint32
	FirstMS  uint32
	LastMS   uint32
	TCPFlags uint8
	TOS      uint8
}

// Exporter packs monitor snapshots into v5 datagrams and writes each
// datagram with a single Write call (suitable for UDP conns and files
// alike).
type Exporter struct {
	w          io.Writer
	bootTime   time.Time
	now        func() time.Time
	sequence   uint32
	engineID   uint8
	datagrams  uint64
	flowsTotal uint64
}

// NewExporter creates an exporter writing to w.
func NewExporter(w io.Writer, engineID uint8) *Exporter {
	return &Exporter{w: w, bootTime: time.Now(), now: time.Now, engineID: engineID}
}

// SetClock injects a clock (tests).
func (e *Exporter) SetClock(now func() time.Time, boot time.Time) {
	e.now = now
	e.bootTime = boot
}

// Export packs the monitor's snapshot into as many v5 datagrams as
// needed. It returns the number of datagrams written.
func (e *Exporter) Export(m *nf.Monitor) (int, error) {
	return e.ExportRecords(recordsFromSnapshot(m.Snapshot(), e.uptimeMS()))
}

// ExportRecords writes pre-built records.
func (e *Exporter) ExportRecords(records []Record) (int, error) {
	sent := 0
	for len(records) > 0 {
		n := len(records)
		if n > MaxPerPacket {
			n = MaxPerPacket
		}
		if err := e.writeDatagram(records[:n]); err != nil {
			return sent, err
		}
		records = records[n:]
		sent++
	}
	return sent, nil
}

func (e *Exporter) uptimeMS() uint32 {
	return uint32(e.now().Sub(e.bootTime).Milliseconds())
}

func (e *Exporter) writeDatagram(records []Record) error {
	now := e.now()
	buf := make([]byte, HeaderLen+len(records)*RecordLen)
	binary.BigEndian.PutUint16(buf[0:2], Version)
	binary.BigEndian.PutUint16(buf[2:4], uint16(len(records)))
	binary.BigEndian.PutUint32(buf[4:8], e.uptimeMS())
	binary.BigEndian.PutUint32(buf[8:12], uint32(now.Unix()))
	binary.BigEndian.PutUint32(buf[12:16], uint32(now.Nanosecond()))
	binary.BigEndian.PutUint32(buf[16:20], e.sequence)
	buf[20] = 0 // engine type: software
	buf[21] = e.engineID
	binary.BigEndian.PutUint16(buf[22:24], 0) // no sampling

	for i, r := range records {
		off := HeaderLen + i*RecordLen
		b := buf[off : off+RecordLen]
		copy(b[0:4], r.Flow.Src[:])
		copy(b[4:8], r.Flow.Dst[:])
		// nexthop (8:12), input (12:14), output (14:16) stay zero.
		binary.BigEndian.PutUint32(b[16:20], r.Packets)
		binary.BigEndian.PutUint32(b[20:24], r.Octets)
		binary.BigEndian.PutUint32(b[24:28], r.FirstMS)
		binary.BigEndian.PutUint32(b[28:32], r.LastMS)
		binary.BigEndian.PutUint16(b[32:34], r.Flow.SrcPort)
		binary.BigEndian.PutUint16(b[34:36], r.Flow.DstPort)
		b[37] = r.TCPFlags
		b[38] = r.Flow.Proto
		b[39] = r.TOS
	}
	e.sequence += uint32(len(records))
	e.datagrams++
	e.flowsTotal += uint64(len(records))
	_, err := e.w.Write(buf)
	return err
}

// Stats returns (datagrams, flows) exported.
func (e *Exporter) Stats() (datagrams, flows uint64) { return e.datagrams, e.flowsTotal }

func recordsFromSnapshot(snap []nf.FlowRecord, nowMS uint32) []Record {
	out := make([]Record, 0, len(snap))
	for _, fr := range snap {
		out = append(out, Record{
			Flow:    fr.Key,
			Packets: saturate32(fr.Stats.Packets),
			Octets:  saturate32(fr.Stats.Bytes),
			LastMS:  nowMS,
		})
	}
	return out
}

func saturate32(v uint64) uint32 {
	if v > 0xffffffff {
		return 0xffffffff
	}
	return uint32(v)
}

// Decode parses one v5 datagram back into header and records — the
// collector side, used by tests and the examples.
func Decode(b []byte) (Header, []Record, error) {
	if len(b) < HeaderLen {
		return Header{}, nil, fmt.Errorf("netflow: datagram too short (%d bytes)", len(b))
	}
	if v := binary.BigEndian.Uint16(b[0:2]); v != Version {
		return Header{}, nil, fmt.Errorf("netflow: version %d, want 5", v)
	}
	h := Header{
		Count:        binary.BigEndian.Uint16(b[2:4]),
		SysUptimeMS:  binary.BigEndian.Uint32(b[4:8]),
		UnixSecs:     binary.BigEndian.Uint32(b[8:12]),
		UnixNsecs:    binary.BigEndian.Uint32(b[12:16]),
		FlowSequence: binary.BigEndian.Uint32(b[16:20]),
		EngineType:   b[20],
		EngineID:     b[21],
		Sampling:     binary.BigEndian.Uint16(b[22:24]),
	}
	if int(h.Count) > MaxPerPacket || len(b) != HeaderLen+int(h.Count)*RecordLen {
		return Header{}, nil, fmt.Errorf("netflow: length %d inconsistent with count %d", len(b), h.Count)
	}
	records := make([]Record, h.Count)
	for i := range records {
		off := HeaderLen + i*RecordLen
		rb := b[off : off+RecordLen]
		records[i] = Record{
			Flow: packet.FlowKey{
				Src:     [4]byte(rb[0:4]),
				Dst:     [4]byte(rb[4:8]),
				SrcPort: binary.BigEndian.Uint16(rb[32:34]),
				DstPort: binary.BigEndian.Uint16(rb[34:36]),
				Proto:   rb[38],
			},
			Packets:  binary.BigEndian.Uint32(rb[16:20]),
			Octets:   binary.BigEndian.Uint32(rb[20:24]),
			FirstMS:  binary.BigEndian.Uint32(rb[24:28]),
			LastMS:   binary.BigEndian.Uint32(rb[28:32]),
			TCPFlags: rb[37],
			TOS:      rb[39],
		}
	}
	return h, records, nil
}

// Key returns the flow key of a decoded record.
func (r Record) Key() packet.FlowKey { return r.Flow }
