package main

import (
	"fmt"

	"nfp/internal/dataplane"
)

// checkPackets is how many packets of each workload the correctness
// check replays: the stream's first 50 000.
const checkPackets = 50000

// referenceConfig is the server the check compares against: the same
// chains compiled with parallelism off, run packet by packet with one
// goroutine and one ring per NF — the paper's sequential composition.
func referenceConfig() dataplane.Config {
	return dataplane.Config{PoolSize: 4096, Burst: 1, Fusion: dataplane.FusionOff}
}

// checkResult is the outcome of one correctness check.
type checkResult struct {
	packets    uint64 // packets replayed through each server
	mismatched uint64 // packets on flows whose output digests differ
	dropDiff   uint64 // difference in drop counts
	fail       failures
}

func (c checkResult) failed() uint64 { return c.mismatched + c.dropDiff + c.fail.total() }

// replay pushes the first n packets of tr through a fresh server on cfg
// and returns the per-flow digest of what came out, the drop count and
// the conservation failures.
func replay(w *workload, tr *traffic, n int, cfg dataplane.Config, sequential bool, reloadEvery int) (digest, uint64, failures, error) {
	r, _, err := newRig(w, tr, cfg, sequential, nil)
	if err != nil {
		return nil, 0, failures{}, err
	}
	r.col.dig = digest{}
	r.col.mode.Store(colDigest)
	r.startReloader(reloadEvery)
	r.run(n)
	r.stopReloader()
	drops := r.drops.Value()
	f := r.stop()
	return r.col.dig, drops, f, nil
}

// check is the paper's result-correctness principle applied to the
// benchmark's own inputs: the benchmarked configuration (parallel
// graphs, bursts, fusion, flow cache, and mid-stream reloads where the
// workload has them) must emit, per flow, the same multiset of packet
// bytes and drop the same number of packets as the sequential
// reference.
func check(w *workload, tr *traffic, n int) (checkResult, error) {
	reloadEvery := 0
	if w.reloadEvery > 0 {
		reloadEvery = n / 4
	}
	got, gotDrops, gotFail, err := replay(w, tr, n, benchConfig(), false, reloadEvery)
	if err != nil {
		return checkResult{}, fmt.Errorf("check %s: %w", w.name, err)
	}
	want, wantDrops, wantFail, err := replay(w, tr, n, referenceConfig(), true, 0)
	if err != nil {
		return checkResult{}, fmt.Errorf("check %s reference: %w", w.name, err)
	}
	res := checkResult{packets: uint64(n), mismatched: got.diff(want), fail: gotFail}
	res.fail.missing += wantFail.total() // a broken reference voids the comparison
	res.dropDiff = max(gotDrops, wantDrops) - min(gotDrops, wantDrops)
	return res, nil
}
