// Command perfbench is the repository benchmark: three seeded workloads that
// drive beliefdb through its public paths (durable ingest through the
// network server, the paper's Table 2 queries at paper scale, and an
// embedded read/write mix) and print one JSON result line.
//
// Usage:
//
//	perfbench -workload ingest|query|mixed|all -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics. With -trace 1 the
// workload runs twice, untraced and then traced, each for half of -seconds:
// the traced pass records spans around the calls it makes into each
// package's public functions, and the result carries the per-layer metrics
// plus the tracing overhead. The span log is written to the work directory.
// -workload all runs every workload in turn. See README.md for the metric
// definitions and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured length of a run (-trace 1 splits it between its two passes)")
		trace    = flag.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
		work     = flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for durable stores and span logs")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	} else if _, ok := workloads[*workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s, or all)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		cfg := config{
			name:    name,
			seed:    *seed,
			seconds: time.Duration(*seconds * float64(time.Second)),
			work:    *work,
			scale:   paperScale,
		}
		res, err := measure(workloads[name], cfg, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		summarize(os.Stdout, name, res)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[name+"/"+k] = m
		}
		if len(names) == 1 {
			all = res
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !all.Correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples map[string]int // sample count behind each percentile, for the summary
	checks  []string       // correctness failures, for the summary
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload and assembles its result. Untraced, the result
// holds every end-to-end metric. Traced, it runs an untraced pass first (the
// overhead baseline) and then the traced pass, and holds every per-layer
// metric; a layer the workload never calls reports 0.
func measure(w workloadFunc, cfg config, traced bool) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	if traced {
		cfg.seconds /= 2
	}
	base, err := w(cfg, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.add(base)
	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{base.e2e[d.name], d.unit}
		}
		res.samples = base.samples
		return res, nil
	}

	tr := newTracer()
	out, err := w(cfg, tr)
	if err != nil {
		return nil, err
	}
	res.add(out)
	out.layer["trace.overhead_frac"] = base.e2e["throughput_per_s"]/out.e2e["throughput_per_s"] - 1
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{out.layer[d.name], d.unit}
	}
	res.samples = out.samples
	return res, tr.write(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.name, cfg.seed)))
}

func (r *result) add(o *outcome) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	if len(o.checks) > 0 {
		r.Correct = false
		r.checks = append(r.checks, o.checks...)
	}
}

// summarize prints a human-readable account of the result (with the sample
// count behind every percentile) ahead of the JSON line.
func summarize(f *os.File, name string, r *result) {
	fmt.Fprintf(f, "workload %s: correct=%v attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	for _, c := range r.checks {
		fmt.Fprintf(f, "  check failed: %s\n", c)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if c, ok := r.samples[n]; ok {
			fmt.Fprintf(f, "  %-32s %14.4f %-6s (n=%d)\n", n, m.Value, m.Unit, c)
		} else {
			fmt.Fprintf(f, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
}
