// Command bench is the repository's benchmark: it drives
// dataplane.Server through its public calls on five frozen workloads
// and reports end-to-end metrics (tracing off) and per-layer metrics
// (a separate traced run). BENCHMARK.json at the repository root
// describes it; README.md in this directory explains the design.
//
//	go run ./bench -seed 1                 every workload, every metric, writes bench/out/result.json
//	go run ./bench -check                  correctness check only
//	go run ./bench -aa 10                  ten back-to-back sets, spread per metric against its bound
//	go run ./bench --workload fwd64 --seed 1 --seconds 10 --trace 0
//	                                       one run; the last line of output is its result as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload and print its result as one JSON line")
		seed         = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds      = flag.Int("seconds", 20, "measured seconds per run")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		checkOnly    = flag.Bool("check", false, "run only the correctness check of every workload")
		aa           = flag.Int("aa", 0, "run this many end-to-end sets back to back and report each metric's spread")
	)
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace == 1)
	case *checkOnly:
		err = runChecks(*seed)
	case *aa > 0:
		err = runAA(*aa, *seed, *seconds)
	default:
		err = runAll(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// watchdog kills the process when one run overstays: a wedged dataplane
// must fail the run, not hang the caller.
func watchdog(seconds int) *time.Timer {
	limit := time.Duration(seconds)*time.Second + 120*time.Second
	return time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: run exceeded %v; the dataplane is wedged\n", limit)
		os.Exit(3)
	})
}

// sampleBuffer returns room for one run's latency samples, mapped
// outside the Go heap. Tens of megabytes of harness memory on the heap
// would count as live heap and stretch the interval between the
// benchmarked program's GC cycles severalfold, hiding GC cost its users
// pay.
func sampleBuffer(seconds int) ([]uint32, error) {
	n := seconds * samplesPerSecond
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map sample buffer: %w", err)
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)[:0], nil
}

// measure performs one run under the watchdog.
func measure(w *workload, seed int64, seconds int, traced bool, buf []uint32) (*result, error) {
	defer watchdog(seconds).Stop()
	if traced {
		return runLayers(w, seed, seconds, buf)
	}
	return runE2E(w, seed, seconds, buf)
}

// defs is the metric table the result reports.
func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// print lists a result's metrics by name and unit, in table order.
func (r *result) print() {
	fmt.Printf("== %s  seed=%d seconds=%d traced=%v correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Correct, r.Attempted, r.Failed)
	for _, d := range r.defs() {
		fmt.Printf("%-36s %16.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s=%d", k, r.Counts[k])
	}
	fmt.Println()
	for _, w := range r.Warnings {
		fmt.Println("warning:", w)
	}
}

// runOne is the driver's entry: one workload, one kind of run, and the
// result as the last line of standard output.
func runOne(name string, seed int64, seconds int, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	buf, err := sampleBuffer(seconds)
	if err != nil {
		return err
	}
	res, err := measure(w, seed, seconds, traced, buf)
	if err != nil {
		return err
	}
	res.print()

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range res.defs() {
		metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChecks runs the correctness check of every workload.
func runChecks(seed int64) error {
	defer watchdog(0).Stop()
	bad := 0
	for i := range workloads {
		w := &workloads[i]
		t0 := time.Now()
		chk, err := check(w, newTraffic(w, seed), checkPackets)
		if err != nil {
			return err
		}
		verdict := "ok"
		if chk.failed() > 0 {
			verdict = fmt.Sprintf("FAILED %+v", chk)
			bad++
		}
		fmt.Printf("check %-20s %6d packets  %5.2fs  %s\n", w.name, chk.packets, time.Since(t0).Seconds(), verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d workloads failed the correctness check", bad)
	}
	return nil
}

// environment is what a result file records about where it was made.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func describeEnvironment(seed int64, seconds int) environment {
	return environment{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds,
	}
}

// commit names the source revision: the one stamped into the binary
// when it was built with go build, else the checkout's HEAD.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func writeJSON(name string, v any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(data, '\n'), 0o644)
}

// runAll measures every workload both ways, prints every metric and
// writes result.json. It fails when any run was incorrect.
func runAll(seed int64, seconds int) error {
	env := describeEnvironment(seed, seconds)
	fmt.Printf("commit=%s go=%s nproc=%d GOMAXPROCS=%d seed=%d seconds=%d\n",
		env.Commit, env.GoVersion, env.NumCPU, env.GOMAXPROCS, seed, seconds)
	buf, err := sampleBuffer(seconds)
	if err != nil {
		return err
	}
	var results []*result
	incorrect := 0
	for i := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(&workloads[i], seed, seconds, traced, buf)
			if err != nil {
				return err
			}
			res.print()
			results = append(results, res)
			if !res.Correct {
				incorrect++
			}
		}
	}
	err = writeJSON("result.json", struct {
		Environment environment `json:"environment"`
		Results     []*result   `json:"results"`
	}{env, results})
	if err != nil {
		return err
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs were incorrect", incorrect)
	}
	return nil
}

// spreadRow is one workload x metric line of the A/A report.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
}

// runAA runs n end-to-end sets on the same binary, set i on seed+i, and
// reports for each workload and metric the quartile spread of its n
// values against the metric's bound. It fails when a spread exceeds its
// bound or a run was incorrect; a benchmark is steady enough to gate on
// when every spread stays under a third of the bound.
func runAA(n int, seed int64, seconds int) error {
	buf, err := sampleBuffer(seconds)
	if err != nil {
		return err
	}
	values := map[[2]string][]float64{} // by workload and metric
	incorrect := 0
	for set := 0; set < n; set++ {
		for i := range workloads {
			w := &workloads[i]
			res, err := measure(w, seed+int64(set), seconds, false, buf)
			if err != nil {
				return err
			}
			res.print()
			if !res.Correct {
				incorrect++
			}
			for _, d := range endToEnd {
				k := [2]string{w.name, d.Name}
				values[k] = append(values[k], res.Metrics[d.Name])
			}
		}
	}
	var rows []spreadRow
	over := 0
	fmt.Printf("\n%-20s %-16s %14s %8s %8s\n", "workload", "metric", "median", "spread", "bound")
	for i := range workloads {
		for _, d := range endToEnd {
			vs := values[[2]string{workloads[i].name, d.Name}]
			row := spreadRow{workloads[i].name, d.Name, vs, median(vs), quartileSpread(vs), d.Bound}
			rows = append(rows, row)
			note := ""
			switch {
			case row.Spread > d.Bound && d.Name != "setup_s":
				note = "  EXCEEDS BOUND"
				over++
			case row.Spread > d.Bound/3:
				note = "  above a third of the bound"
			}
			fmt.Printf("%-20s %-16s %14.4f %7.2f%% %7.2f%%%s\n",
				row.Workload, row.Metric, row.Median, 100*row.Spread, 100*d.Bound, note)
		}
	}
	err = writeJSON("aa.json", struct {
		Environment environment `json:"environment"`
		Sets        int         `json:"sets"`
		Rows        []spreadRow `json:"rows"`
	}{describeEnvironment(seed, seconds), n, rows})
	if err != nil {
		return err
	}
	if over > 0 || incorrect > 0 {
		return fmt.Errorf("%d spreads exceed their bound, %d runs were incorrect", over, incorrect)
	}
	return nil
}
