package main

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract and match BENCHMARK.json (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports untraced. The timed
// operation and the throughput unit differ per workload (README.md):
// ingest times ExecBatch requests and counts statements, query times and
// counts queries, and mixed times its open-loop writes from when they were
// due and counts the queries of its closed-loop reader.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that never calls a
// layer reports 0 for it.
var perLayer = []metricDef{
	{"bsql.parse_us", "us"},
	{"bsql.translate_us", "us"},
	{"sqlparser.parse_us", "us"},
	{"sqlparser.sql_bytes", "bytes"},
	{"query.run_us.q1_0", "us"},
	{"query.run_us.q1_1", "us"},
	{"query.run_us.q1_2", "us"},
	{"query.run_us.q1_3", "us"},
	{"query.run_us.q1_4", "us"},
	{"query.run_us.q2", "us"},
	{"query.run_us.q3", "us"},
	{"query.allocs_per_query", "count"},
	{"query.alloc_bytes_per_query", "bytes"},
	{"query.rows_examined_per_row", "count"},
	{"query.result_rows", "count"},
	{"server.query_self_us", "us"},
	{"wire.result_bytes_per_query", "bytes"},
	{"wire.ping_rtt_us", "us"},
	{"bsql.compile_us", "us"},
	{"store.submit_us", "us"},
	{"store.batches_per_round", "count"},
	{"server.exec_self_us", "us"},
	{"store.insert_us", "us"},
	{"store.delete_us", "us"},
	{"store.apply_self_us", "us"},
	{"store.allocs_per_stmt", "count"},
	{"store.alloc_bytes_per_stmt", "bytes"},
	{"store.overhead", "ratio"},
	{"store.states", "count"},
	{"store.rows_per_stmt", "count"},
	{"wal.write_us", "us"},
	{"wal.sync_us", "us"},
	{"wal.syncs_per_stmt", "count"},
	{"wal.bytes_per_stmt", "bytes"},
	{"snapshot.checkpoint_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.load_s", "s"},
	{"wal.replay_s", "s"},
	{"recovery_s", "s"},
	{"disk_bytes_per_stmt", "bytes"},
	{"loadgen.late_p99_ms", "ms"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.sched_latency_p99_us", "us"},
	{"trace.overhead_frac", "frac"},
}

// outcome is what one pass of a workload measured.
type outcome struct {
	attempted, failed int64
	checks            []string // failed correctness checks
	e2e               map[string]float64
	layer             map[string]float64
	samples           map[string]int
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

// check records a failed correctness check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

// tail reports p99_ms and the sample count behind both percentiles. The
// run's samples, in completion order, are cut into consecutive windows of
// at least 1,000, so that each window's p99 has ten samples beyond it, and
// p99_ms is the median of the windows' p99s: a stall of the machine that
// covers one window does not move it. A run with fewer than 2,000 samples
// is one window.
func (o *outcome) tail(s []timedSample) {
	s = slices.Clone(s)
	slices.SortFunc(s, func(a, b timedSample) int { return cmp.Compare(a.at, b.at) })
	k := max(1, len(s)/1000)
	var p99s []float64
	for i := 0; i < k; i++ {
		p99s = append(p99s, ms(percentile(durations(s[i*len(s)/k:(i+1)*len(s)/k]), 0.99)))
	}
	o.e2e["p99_ms"] = median(p99s)
	o.samples["p50_ms"] = len(s)
	o.samples["p99_ms"] = len(s)
}

// timedSample is one request's latency and when it completed, measured from
// the start of the load.
type timedSample struct{ at, lat time.Duration }

// windows is how many equal parts of the load the median-of-windows
// estimates of p50_ms and throughput_per_s split a run into (ingest uses its
// episodes instead), so a stall of the machine that covers a few windows
// moves neither.
const windows = 10

func windowOf(at, total time.Duration) int {
	return min(max(int(int64(at)*windows/int64(total)), 0), windows-1)
}

func durations(s []timedSample) []time.Duration {
	out := make([]time.Duration, len(s))
	for i, x := range s {
		out[i] = x.lat
	}
	return out
}

// windowP50 is the median over the windows of each window's median latency,
// in milliseconds.
func windowP50(s []timedSample, total time.Duration) float64 {
	per := make([][]time.Duration, windows)
	for _, x := range s {
		w := windowOf(x.at, total)
		per[w] = append(per[w], x.lat)
	}
	var p []float64
	for _, ds := range per {
		if len(ds) > 0 {
			p = append(p, ms(percentile(ds, 0.5)))
		}
	}
	return median(p)
}

// windowRate is the median over the windows of the successful completions
// per second.
func windowRate(s []timedSample, total time.Duration) float64 {
	counts := make([]float64, windows)
	for _, x := range s {
		if x.lat != failedLatency {
			counts[windowOf(x.at, total)]++
		}
	}
	for i := range counts {
		counts[i] /= total.Seconds() / windows
	}
	return median(counts)
}

// percentile returns the q-quantile of ds by linear interpolation between
// the closest ranks (0 for an empty slice). ds is sorted in place.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	pos := q * float64(len(ds)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(ds)-1)
	return ds[lo] + time.Duration((pos-float64(lo))*float64(ds[hi]-ds[lo]))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianUS is the median of ds in microseconds.
func medianUS(ds []time.Duration) float64 { return us(percentile(slices.Clone(ds), 0.5)) }

// heapMB forces a collection and reports the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// rtSnap is a runtime/metrics reading; two of them bound a measured span.
type rtSnap struct {
	gcCPU, totalCPU    float64
	allocs, allocBytes uint64
	pauses, sched      *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocs:     s[2].Value.Uint64(),
		allocBytes: s[3].Value.Uint64(),
		pauses:     s[4].Value.Float64Histogram(),
		sched:      s[5].Value.Float64Histogram(),
	}
}

// runtimeLayer fills the runtime.* layer metrics for the span from a to b.
func runtimeLayer(o *outcome, a, b rtSnap) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		o.layer["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
	o.layer["runtime.gc_pause_p99_us"] = histP99(a.pauses, b.pauses) * 1e6
	o.layer["runtime.sched_latency_p99_us"] = histP99(a.sched, b.sched) * 1e6
}

// histP99 is the 0.99 quantile of the observations a histogram gained
// between two readings, taken as the upper edge of the bucket it falls in
// (the lower edge for the open-ended last bucket).
func histP99(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= want {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}
