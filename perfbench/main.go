// Command perfbench is the repository benchmark. It builds a fresh
// TransEdge deployment in this process, drives one named workload through
// the client API (Txn.Read/Commit, Session.ReadOnly) for a fixed window,
// checks every observed value against a serializable history, and prints
// the end-to-end metrics (timing run) or the per-layer metrics (traced
// run) as the last line of standard output. From the repository root:
//
//	bash perfbench/run.sh --workload ro-uniform --seed 1 --seconds 30 --trace 0
//
// Working files (the durable workload's data directory, spans, CPU
// profiles) go under .bench_build/out. See README.md for the workloads
// and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Deployment shared by every workload: the quick-scale edge topology.
const (
	clusters     = 5
	faults       = 1 // per cluster: 3f+1 = 4 replicas, 20 in all
	valueSize    = 256
	intraDelay   = 50 * time.Microsecond
	interDelay   = 500 * time.Microsecond // between clusters and on client links
	latencyLimit = 50 * time.Millisecond  // open-loop limit on the p99
	setupRuns    = 3                      // set-ups per timing run; setup_s is their median
	warmup       = 2 * time.Second        // load before any measurement, so caches and heap settle
	outDir       = ".bench_build/out"
)

// workload describes one named traffic mix.
type workload struct {
	name       string
	keys       int
	durable    bool          // WAL + checkpoints in a fresh data directory
	readRate   float64       // open-loop verified reads per second (0: none)
	perCluster int           // keys read from each cluster per verified read
	zipfS      float64       // key skew within each cluster (0: uniform)
	writers    int           // closed-loop read-write clients
	think      time.Duration // writer pause between transactions
	ladder     bool          // search the highest rate meeting the latency limit
}

var workloads = []workload{
	{name: "ro-uniform", keys: 100_000, readRate: 3000, perCluster: 1, ladder: true},
	{name: "rw-commit", keys: 20_000, durable: true, writers: 2},
	{name: "mixed-skew", keys: 20_000, readRate: 500, perCluster: 2, zipfS: 1.1, writers: 1, think: 25 * time.Millisecond},
}

func main() {
	name := flag.String("workload", "", "workload name: ro-uniform, rw-commit or mixed-skew")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{w: *w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	res, err := r.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(r, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one reported value; n is its sample count where it has one.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult writes the environment header, one line per metric with its
// unit and sample count, and the JSON result as the last line.
func printResult(r *run, res *result) {
	hdr, _ := json.Marshal(environment(r))
	fmt.Printf("env %s\n", hdr)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		if m.n > 0 {
			fmt.Printf("%-36s %14.4f %-6s n=%d\n", k, m.Value, m.Unit, m.n)
		} else {
			fmt.Printf("%-36s %14.4f %s\n", k, m.Value, m.Unit)
		}
	}
	for _, note := range r.notes {
		fmt.Println("note:", note)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func environment(r *run) map[string]any {
	return map[string]any{
		"workload":        r.w.name,
		"seed":            r.seed,
		"seconds":         r.window.Seconds(),
		"traced":          r.traced,
		"cores":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"commit":          commitID(),
		"kernel":          kernel(),
		"keys":            r.w.keys,
		"clusters":        clusters,
		"replicas":        clusters * (3*faults + 1),
		"value_bytes":     valueSize,
		"intra_delay_us":  intraDelay.Microseconds(),
		"inter_delay_us":  interDelay.Microseconds(),
		"flush_policy":    flushPolicy(r.w),
		"latency_limit":   fmt.Sprintf("p99 <= %v, no growing backlog", latencyLimit),
		"read_rate":       r.w.readRate,
		"keys_per_read":   r.w.perCluster * clusters,
		"zipf_s":          r.w.zipfS,
		"writers":         r.w.writers,
		"writer_think_ms": r.w.think.Milliseconds(),
		"batch_interval":  "1ms",
		"pipeline_depth":  4,
		"setups_per_run":  setupRuns,
	}
}

func flushPolicy(w workload) string {
	if !w.durable {
		return "in-memory (no WAL)"
	}
	return "WAL group commit: fsync every 8 batches or 2ms"
}
