package dataplane

import (
	"runtime"
	"strconv"
	"sync/atomic"

	"nfp/internal/packet"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/flightrec"
)

// Version stamps nfp_build_info and incident bundles. Bumped on
// releases; there is no build-time injection, so it names the source
// line, not a binary artifact.
const Version = "0.9.0"

// dropProv is the provenance a drop intention carries from the site
// that decided the drop to the single terminal accounting point
// (shard.emit, possibly via mergers): the taxonomy
// cause, how far the packet got, and the plan node that killed it.
// Parallel branches can report several causes for one packet; the
// first-reported cause wins at the merger (see atEntry.prov), so the
// terminal per-cause counters sum exactly to total drops.
type dropProv struct {
	cause flightrec.Cause
	stage telemetry.Stage
	node  int32
}

// dropCounter resolves the terminal nfp_drops_total{cause,nf,shard,
// gen} counter for one provenance, with a lazy per-runtime cache so
// the hot path pays one atomic load after first use (registry lookups
// hash label sets). The cause=unknown row exists only if a drop site
// ever forgets to stamp provenance — and then the conservation audit
// fails loudly.
func (sh *shard) dropCounter(pr *planRuntime, prov dropProv) *telemetry.Counter {
	idx := int(prov.node)*flightrec.NumCauses + int(prov.cause)
	if c := pr.dropCtrs[idx].Load(); c != nil {
		return c
	}
	nf := "admission" // the row past the plan's nodes
	if int(prov.node) < len(pr.plan.Nodes) {
		nf = pr.plan.Nodes[prov.node].NF.String()
	}
	c := sh.srv.tel.Counter(flightrec.MetricDrops, labelGen(sh.labelShard([]telemetry.Label{
		telemetry.L("cause", prov.cause.String()),
		telemetry.L("nf", nf),
	}), pr.gen)...)
	pr.dropCtrs[idx].Store(c)
	return c
}

// recordDrop puts one terminal drop on the event ring: flow key, cause,
// node, stage and span cursor — why this packet died and how far it
// got. The recorder folds a run of drops with the same cause, node and
// generation into one slot, so this packet is the slot's exemplar or
// one more on its count. Out of line so the terminal hot path stays
// small.
func (sh *shard) recordDrop(pr *planRuntime, prov dropProv, pkt *packet.Packet, cursor int64) {
	d := flightrec.DropRecord{
		Shard:  sh.id,
		Cause:  prov.cause,
		Stage:  uint8(prov.stage),
		Gen:    pr.gen,
		Node:   pr.nodeNames[prov.node],
		PID:    pkt.Meta.PID,
		Cursor: cursor,
	}
	if k, err := pkt.FlowKey(); err == nil {
		d.Flow, d.HasKey = k, true
	}
	sh.srv.rec.Drop(d)
}

// note puts one event of this shard — a panic, restart, shed or
// backpressure episode at node — on the flight recorder.
func (sh *shard) note(kind flightrec.Kind, gen uint64, node uint32, count uint64) {
	sh.srv.rec.Event(flightrec.Note{Shard: sh.id, Kind: kind, Gen: gen, Node: node, Count: count})
}

// note records a server-lifecycle event against shard 0.
func (s *Server) note(kind flightrec.Kind, gen uint64, detail uint32, count uint64) {
	s.rec.Event(flightrec.Note{Kind: kind, Gen: gen, Detail: detail, Count: count})
}

// FlightRecorder returns the always-on flight recorder.
func (s *Server) FlightRecorder() *flightrec.Recorder { return s.rec }

// BuildInfo self-describes the server: the nfp_build_info label set
// and the incident bundles' build section.
func (s *Server) BuildInfo() map[string]string {
	return map[string]string{
		"version":     Version,
		"go_version":  runtime.Version(),
		"shards":      strconv.Itoa(s.cfg.Shards),
		"burst":       strconv.Itoa(s.cfg.Burst),
		"fusion":      s.cfg.Fusion.String(),
		"ring_policy": s.cfg.RingPolicy.String(),
	}
}

// drainCause distinguishes the two flavors of unhealthy-segment
// draining: a sealed (superseded) generation drains as reload_drain,
// a live generation's crashed segment as unhealthy_drain. stop_drain
// is structurally unreachable — Stop waits for conservation before
// stopping runtimes — and a test pins its series to zero.
func drainCause(pr *planRuntime) flightrec.Cause {
	if pr.gone.Load() {
		return flightrec.CauseReloadDrain
	}
	return flightrec.CauseUnhealthyDrain
}

// dropCtrSlot is the per-runtime cache slot type (split out to keep
// planRuntime readable).
type dropCtrSlot = atomic.Pointer[telemetry.Counter]
