package nfa

// builtinCostNS is the busy time, in nanoseconds per packet, of each NF
// internal/nf implements, measured on a 2-vCPU x86-64 VM (Intel Xeon,
// Go 1.24). It is a default, not a truth: an NF's cost moves with its
// traffic (monitor reads a cold flow entry on 262144 flows and a warm
// one on 1024), and only the cost rule in internal/core reads it.
//
// The six NFs a bench workload runs take `go run ./bench -trace 1`'s
// nf.<x>.busy_ns_per_pkt (4 s runs, seeds 1 and 3 agreeing within 2 %,
// vpn and l3fwd within 5 %) on the workload named. The rest take `go test -run '^$' -bench
// NFCost ./internal/nf/`, one Process call over fig13_dcmix's frame
// mix. The synthetic NF is absent: its cost is whatever its loop count
// makes it, so it stays unknown.
//
// The rows marked "16-byte key" moved when packet.FlowKey grew its pad.
// They were re-measured by the same method, the 14-byte and the
// 16-byte key run alternately on one VM (three bench runs per seed,
// 5–13 NFCost rounds), and scaled by the median ratio: that VM's
// absolute figures drifted between 0.8× and 2× the table's within the
// hour, and a row from another machine state would no longer compare
// with the others or with the rule's 500 ns limit. Rows whose ratio
// stayed within 10 % (lb ×0.93, ids ×0.94, vpn ×0.94, nids, caching,
// shaper, compression) were left as they were.
var builtinCostNS = map[string]int64{
	NFL3Fwd:    13,  // fwd64; 16-byte key ×0.40 (seeds 1 and 3: ×0.41, ×0.40)
	NFFirewall: 42,  // stateful_manyflow; 16-byte key ×0.85 (×0.94, ×0.76)
	NFLB:       167, // stateful_manyflow
	NFMonitor:  100, // stateful_manyflow; 16-byte key ×0.44 (×0.46, ×0.42; 38 on fig13_dcmix)
	NFIDS:      344, // fig13_dcmix
	NFVPN:      561, // fig13_dcmix (seeds 1 and 3: 574, 548)
	NFNIDS:     277, // BenchmarkNFCost
	NFNAT:      138, // 16-byte key ×0.80
	NFGateway:  42,  // 16-byte key ×0.58
	NFProxy:    65,  // 16-byte key ×0.85
	NFCaching:  653,
	NFShaper:   3, // unshaped (rate 0): a counter bump
	// flate.NewWriter per packet dominates.
	NFCompress: 267083,
}
