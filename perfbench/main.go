// Command perfbench is the repository's benchmark. One invocation runs one
// named workload in-process against the public functions of the layers it
// loads, checks that every output is correct, and prints its metrics:
//
//	perfbench --workload link|sensing|ingest|campaign --seed N --seconds S --trace 0|1
//
// With --trace 0 the run is timed untraced and prints the end-to-end
// metrics; with --trace 1 a separate traced phase decomposes each op into
// spans around the layer calls and prints the per-layer metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Every earlier line starts with "perfbench:" and carries the run's
// provenance: the machine fingerprint, the seed, the simulated statistics
// (which repeat exactly for a seed) and each metric with its unit.
//
// The design goal is steadiness across runs of the same code:
//   - each workload's ops form a fixed pass derived from the seed, repeated
//     until the time is up, so the simulated work is identical run to run;
//   - timings are taken per op and reported as medians and percentiles,
//     less the driving thread's run-queue wait and scaled by the host's
//     measured speed (see host.go);
//   - allocation, byte and record counts carry the efficiency signal;
//   - setup_s is the median of several complete set-ups.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every untraced run
// of every workload prints all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_tail_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the traced run's metrics. Every traced run prints all of
// them; a layer the workload does not load reads 0.
var perLayer = []metricDef{
	// link
	{"channel.reset.us_per_op", "us"},
	{"channel.gain.us_per_op", "us"},
	{"channel.fading.us_per_op", "us"},
	{"channel.cfo.us_per_op", "us"},
	{"channel.interferer.us_per_op", "us"},
	{"channel.noise.us_per_op", "us"},
	{"lora.demod.us_per_op", "us"},
	{"lora.demod.allocs_per_op", "count"},
	{"phy.link.self_us_per_op", "us"},
	{"link.per", "share"},
	// sensing
	{"dsp.nco.us_per_op", "us"},
	{"channel.mobility.us_per_op", "us"},
	{"channel.mobility.calls_per_op", "count"},
	{"phy.stream.us_per_op", "us"},
	{"dsp.welch.us_per_op", "us"},
	{"sense.quantize.us_per_op", "us"},
	{"sense.report_marshal.us_per_op", "us"},
	{"sense.ingest_wire.us_per_op", "us"},
	// ingest
	{"sense.report_unmarshal.us_per_op", "us"},
	{"sense.absorb.us_per_op", "us"},
	{"sense.handler.self_us_per_op", "us"},
	{"sense.handler.allocs_per_op", "count"},
	{"httpjson.write.us_per_op", "us"},
	{"sense.map_marshal.us_per_read", "us"},
	{"sense.summarize.us_per_read", "us"},
	{"sense.accepted_share", "share"},
	// campaign
	{"fleet.run.ms_per_op", "ms"},
	{"fleet.run.allocs_per_op", "count"},
	{"fleet.server.self_ms_per_op", "ms"},
	{"fleet.http.nodes_ms_per_op", "ms"},
	{"fleet.nodes_done_share", "share"},
	{"par.speedup", "x"},
	{"journal.records_per_op", "count"},
	{"journal.bytes_per_op", "B"},
	{"journal.append.us_per_record", "us"},
	{"journal.replay.ms", "ms"},
	{"journal.compact.ms", "ms"},
	{"fleet.recover.ms", "ms"},
	// the untraced phase of the traced run, normalized and raw
	{"host.ops_per_s", "1/s"},
	{"host.raw_ops_per_s", "1/s"},
	{"host.op_p50_us", "us"},
	{"host.raw_op_p50_us", "us"},
	{"host.speed_factor", "x"},
	{"host.runqueue_wait_share", "share"},
	// the tracing itself
	{"trace.overhead_share", "share"},
	{"trace.mismatch_ops", "count"},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out is the directory the run writes into: per-run state
	// directories and the span file of a traced run.
	out string
}

// workloads maps each workload name to its constructor. A constructor
// generates the benchmark's own inputs from the seed; that work is not
// part of any metric.
var workloads = map[string]func(cfg config) (workload, error){
	"link":     newLink,
	"sensing":  newSensing,
	"ingest":   newIngest,
	"campaign": newCampaign,
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	sum, err := runWorkload(cfg, out)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: link, sensing, ingest or campaign")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same ops")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced phase and prints per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for run state and the span file")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want link, sensing, ingest or campaign)", cfg.workload)
	}
	if !(cfg.seconds > 0) || cfg.seconds > 600 {
		return cfg, fmt.Errorf("--seconds %g outside (0, 600]", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace %d (want 0 or 1)", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// fingerprint identifies the machine and the run, so a number is never
// read without the hardware and seed that produced it.
func fingerprint(cfg config) string {
	return fmt.Sprintf("goos=%s goarch=%s num_cpu=%d gomaxprocs=%d cpu_model=%q go=%s workload=%s seed=%d seconds=%g trace=%t",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(),
		runtime.Version(), cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runWorkload runs cfg's workload, writes the provenance lines to log and
// returns the summary. An error means the run could not be measured at
// all; a failed correctness gate is reported in the summary instead.
func runWorkload(cfg config, log io.Writer) (*summary, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: machine %s\n", fingerprint(cfg))
	w, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res, runErr := measureWorkload(cfg, w)
	if err := w.close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("%s: closing: %w", cfg.workload, err)
	}
	if runErr != nil {
		return nil, runErr
	}
	for _, s := range res.stats {
		fmt.Fprintf(log, "perfbench: stat %s\n", s)
	}
	for _, n := range res.notes {
		fmt.Fprintf(log, "perfbench: %s\n", n)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	sum := &summary{
		Correct:   res.gateErr == nil && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		sum.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(log, "perfbench: metric %s = %v %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(log, "perfbench: failed_share = %v (%d of %d ops)\n",
		float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	if res.firstErr != nil {
		fmt.Fprintf(log, "perfbench: first failed op: %v\n", res.firstErr)
	}
	if res.gateErr != nil {
		fmt.Fprintf(log, "perfbench: correctness gate failed: %v\n", res.gateErr)
	}
	return sum, nil
}
