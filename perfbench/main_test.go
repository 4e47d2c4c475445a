package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// tiny sizes every workload to run in about a second.
var tiny = scale{
	setupReps:        2,
	ingestStmts:      60,
	ingestEpisodeSec: 0.2,
	ingestUsers:      5,
	queryN:           200,
	mixedN:           200,
	mixedRate:        200,
	serialProbes:     1,
	pings:            5,
	referenceSeed:    3,
}

func tinyConfig(t *testing.T, name string) config {
	return config{name: name, seed: 1, seconds: 400 * time.Millisecond, work: t.TempDir(), scale: tiny}
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks that each emits exactly the named metrics with
// their units and passes its correctness checks.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := measure(workloads[name], tinyConfig(t, name), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%q",
					name, traced, res.Correct, res.Attempted, res.Failed, res.checks)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestWrongReferenceFailsCheck plants a wrong reference answer and expects
// the query workload's correctness check to fail the run.
func TestWrongReferenceFailsCheck(t *testing.T) {
	cfg := tinyConfig(t, "query")
	cfg.corrupt = func(refs map[string]answer) {
		a := refs["q1,1"]
		a.rows++
		refs["q1,1"] = a
	}
	res, err := measure(workloads["query"], cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || len(res.checks) == 0 {
		t.Fatalf("a wrong reference passed the check: correct=%v checks=%q", res.Correct, res.checks)
	}
}

// TestQuerySpansWithinRTT checks the traced query path: the self times of
// the four query-layer spans of a request sum to no more than the client
// round trip of that request, for the median request.
func TestQuerySpansWithinRTT(t *testing.T) {
	tr := newTracer()
	cfg := tinyConfig(t, "query")
	cfg.dir = t.TempDir()
	if _, err := runQuery(cfg, tr); err != nil {
		t.Fatal(err)
	}
	type reqKey struct {
		log int
		req int64
	}
	rtt := map[reqKey]time.Duration{}
	layers := map[reqKey]time.Duration{}
	spans := tr.all()
	self := selfTimes(spans, -1, nil)
	for i, s := range spans {
		k := reqKey{s.Log, s.Req}
		switch {
		case strings.HasPrefix(s.Name, "client.Query"):
			rtt[k] = s.dur()
		case s.Parent >= 0:
			layers[k] += self[i]
		}
	}
	var rtts, sums []float64
	for k, d := range rtt {
		if l, ok := layers[k]; ok {
			rtts = append(rtts, float64(d))
			sums = append(sums, float64(l))
		}
	}
	if len(rtts) < 10 {
		t.Fatalf("only %d traced requests", len(rtts))
	}
	if median(sums) > median(rtts) {
		t.Errorf("median layer self time %v exceeds median round trip %v",
			time.Duration(median(sums)), time.Duration(median(rtts)))
	}
}

func TestCoveredAndSelfTimes(t *testing.T) {
	if got := covered(0, 10, [][2]int64{{2, 4}, {3, 6}, {8, 20}}); got != 6 {
		t.Errorf("covered = %d, want 6", got)
	}
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 40, End: 50},
		{Name: "wal.Sync", Parent: -1, Start: 60, End: 70, Log: 1},
	}
	self := selfTimes(spans, 1, walOverlap)
	if got := self[0]; got != 60 {
		t.Errorf("root self = %d, want 60 (100 - 20 - 10 - 10)", got)
	}
	if got := self[1]; got != 20 {
		t.Errorf("a self = %d, want 20", got)
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	if got := percentile(ds, 0.5); got != 3 {
		t.Errorf("p50 = %d, want 3", got)
	}
	if got := percentile(ds, 1); got != 5 {
		t.Errorf("p100 = %d, want 5", got)
	}
}

// TestTailIgnoresOneStalledWindow checks that p99_ms is the median of the
// windows' p99s: a stall confined to one window of 1,000 samples does not
// move it.
func TestTailIgnoresOneStalledWindow(t *testing.T) {
	var s []timedSample
	for i := 0; i < 3000; i++ {
		lat := time.Millisecond
		if i >= 2000 && i%20 == 0 {
			lat = time.Second
		}
		s = append(s, timedSample{at: time.Duration(i), lat: lat})
	}
	o := newOutcome()
	o.tail(s)
	if got := o.e2e["p99_ms"]; got != 1 {
		t.Errorf("p99_ms = %v, want 1", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric lists and
// workloads defined here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
	for _, c := range []struct {
		label string
		json  []def
		code  []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", c.label, len(c.json), len(c.code))
			continue
		}
		for i, d := range c.code {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.label, i, c.json[i], d)
			}
		}
	}
}
