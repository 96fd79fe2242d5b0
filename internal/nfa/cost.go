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
var builtinCostNS = map[string]int64{
	NFL3Fwd:    32,  // fwd64 (seeds 1 and 3: 31, 33)
	NFFirewall: 49,  // stateful_manyflow
	NFLB:       167, // stateful_manyflow
	NFMonitor:  227, // stateful_manyflow (70 on fig13_dcmix)
	NFIDS:      344, // fig13_dcmix
	NFVPN:      561, // fig13_dcmix (seeds 1 and 3: 574, 548)
	NFNIDS:     277, // BenchmarkNFCost
	NFNAT:      173,
	NFGateway:  72,
	NFProxy:    76,
	NFCaching:  653,
	NFShaper:   3, // unshaped (rate 0): a counter bump
	// flate.NewWriter per packet dominates.
	NFCompress: 267083,
}
