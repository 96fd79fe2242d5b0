package sim

import (
	"container/heap"

	"nfp/internal/dataplane"
	"nfp/internal/graph"
)

// DES is a discrete-event simulation of the NFP dataplane: it
// interprets a compiled execution plan (the same Plan the live
// dataplane runs) over virtual time, with every stage — classifier, NF
// runtimes, merger instances — modeled as a single-server FIFO queue
// whose service times come from the calibrated Params.
//
// The DES serves two purposes the closed-form model cannot:
//
//   - it validates the analytic bottleneck throughput from first
//     principles (tests assert they agree), and
//   - it produces latency-vs-offered-load curves, exposing the
//     queueing knee as the input rate approaches the bottleneck.
type DES struct {
	params  Params
	plan    *dataplane.Plan
	mergers int

	stages []*desStage // 0 = classifier, 1..N = NFs, then mergers
	events eventHeap
	now    float64

	// per-(join,pid) tail accounting, mirroring the merger AT.
	pending map[joinKey]*joinState

	completed  int
	latencySum float64
	lastOut    float64
}

type joinKey struct {
	join int
	pid  uint64
}

type joinState struct {
	count int
}

type desStage struct {
	serviceUS float64
	busyUntil float64
}

// event is one packet arriving at a stage at a virtual time.
type event struct {
	at    float64
	stage int
	pid   uint64
	birth float64
	// what to run after the stage's service completes.
	kind eventKind
	node int // NF index for evNode
	join int // join index for evJoin
}

type eventKind uint8

const (
	evClassify eventKind = iota
	evNode
	evJoin
)

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// NewDES compiles g and builds the simulation.
func NewDES(params Params, g graph.Node, frameSize, mergers int) (*DES, error) {
	if mergers <= 0 {
		mergers = 2
	}
	plan, err := dataplane.CompilePlan(1, g)
	if err != nil {
		return nil, err
	}
	d := &DES{
		params:  params,
		plan:    plan,
		mergers: mergers,
		pending: map[joinKey]*joinState{},
	}
	d.stages = append(d.stages, &desStage{serviceUS: params.ClassifyServiceUS})
	pl := payloadBytes(frameSize)
	for _, n := range plan.Nodes {
		svc := params.cost(n.NF.Name).ServiceUS +
			params.cost(n.NF.Name).PerKBUS*float64(pl)/1024 +
			params.HopServiceUS
		d.stages = append(d.stages, &desStage{serviceUS: svc})
	}
	for m := 0; m < mergers; m++ {
		d.stages = append(d.stages, &desStage{serviceUS: params.MergeItemServiceUS})
	}
	return d, nil
}

func (d *DES) nodeStage(node int) int { return 1 + node }
func (d *DES) mergerStage(pid uint64) int {
	return 1 + len(d.plan.Nodes) + int(pid%uint64(d.mergers))
}

// Run simulates n packets arriving every intervalUS and returns the
// mean end-to-end latency (µs) and the measured output rate (Mpps).
func (d *DES) Run(n int, intervalUS float64) (meanLatencyUS, outputMpps float64) {
	for i := 0; i < n; i++ {
		at := float64(i) * intervalUS
		heap.Push(&d.events, event{
			at: at, stage: 0, pid: uint64(i + 1), birth: at, kind: evClassify,
		})
	}
	for d.events.Len() > 0 {
		e := heap.Pop(&d.events).(event)
		d.now = e.at
		st := d.stages[e.stage]
		start := d.now
		if st.busyUntil > start {
			start = st.busyUntil
		}
		finish := start + st.serviceUS
		st.busyUntil = finish
		d.dispatch(e, finish)
	}
	if d.completed == 0 {
		return 0, 0
	}
	mean := d.latencySum / float64(d.completed)
	rate := float64(d.completed) / d.lastOut // packets per µs = Mpps
	return mean, rate
}

// dispatch performs the post-service forwarding of one event.
func (d *DES) dispatch(e event, finish float64) {
	switch e.kind {
	case evClassify:
		d.execList(d.plan.Entry, e, finish)
	case evNode:
		d.execList(d.plan.Nodes[e.node].Next, e, finish)
	case evJoin:
		key := joinKey{join: e.join, pid: e.pid}
		js := d.pending[key]
		if js == nil {
			js = &joinState{}
			d.pending[key] = js
		}
		js.count++
		spec := d.plan.Joins[e.join]
		if js.count < spec.ExpectTails {
			return
		}
		delete(d.pending, key)
		d.execList(spec.Next, e, finish)
	}
}

// execList models a dispatch list at virtual time t: copies add copy
// latency serially (they happen on the dispatching stage), deliveries
// schedule arrivals at the target stages.
func (d *DES) execList(ds []dataplane.Dispatch, e event, t float64) {
	for _, disp := range ds {
		if disp.NewVersion != 0 {
			if disp.FullCopy {
				t += d.params.CopyHeaderUS + d.params.CopyFullPerKBUS // coarse: ~1KB frame
			} else {
				t += d.params.CopyHeaderUS
			}
			continue
		}
		for _, target := range disp.Targets {
			switch target.Kind {
			case dataplane.ToNode:
				heap.Push(&d.events, event{
					at: t, stage: d.nodeStage(target.Node),
					pid: e.pid, birth: e.birth, kind: evNode, node: target.Node,
				})
			case dataplane.ToJoin:
				heap.Push(&d.events, event{
					at: t, stage: d.mergerStage(e.pid),
					pid: e.pid, birth: e.birth, kind: evJoin, join: target.Join,
				})
			case dataplane.ToOutput:
				d.completed++
				d.latencySum += t - e.birth
				if t > d.lastOut {
					d.lastOut = t
				}
			}
		}
	}
}

// SaturationMpps estimates the zero-loss capacity by driving the DES
// far above any plausible service rate and measuring the drain rate.
func SaturationMpps(params Params, g graph.Node, frameSize, mergers, n int) (float64, error) {
	d, err := NewDES(params, g, frameSize, mergers)
	if err != nil {
		return 0, err
	}
	_, rate := d.Run(n, 0.0001) // effectively simultaneous arrivals
	return rate, nil
}
