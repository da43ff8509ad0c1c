package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// requires every correctness gate to pass, every metric of BENCHMARK.json
// to be printed with its unit, and every decomposition to agree with the
// real call.
func TestSmoke(t *testing.T) {
	bench := readBenchmarkJSON(t)
	for _, name := range []string{"link", "sensing", "ingest", "campaign"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, trace), func(t *testing.T) {
				cfg := config{workload: name, seed: 7, seconds: 0.01, trace: trace, out: t.TempDir()}
				var log bytes.Buffer
				sum, err := runWorkload(cfg, &log)
				if err != nil {
					t.Fatal(err)
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Fatalf("correct=%t failed=%d attempted=%d\n%s", sum.Correct, sum.Failed, sum.Attempted, log.String())
				}
				want := bench.EndToEnd
				if trace {
					want = bench.PerLayer
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(sum.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := sum.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %q", m.Name, got, m.Unit)
					}
					if !strings.Contains(log.String(), fmt.Sprintf("perfbench: metric %s = ", m.Name)) {
						t.Errorf("metric %s missing from the log", m.Name)
					}
				}
				if trace && sum.Metrics["trace.mismatch_ops"].Value != 0 {
					t.Errorf("%v decompositions disagreed with the real call", sum.Metrics["trace.mismatch_ops"].Value)
				}
				for _, line := range []string{"perfbench: machine ", "perfbench: stat "} {
					if !strings.Contains(log.String(), line) {
						t.Errorf("no %q line in the log", line)
					}
				}
			})
		}
	}
}

type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecompositionsAgree checks each traced decomposition against the
// real call on a few ops: the Probe verdict, the Measure bytes and the
// shadow map's bytes.
func TestDecompositionsAgree(t *testing.T) {
	cfg := config{seed: 3, seconds: 1, out: t.TempDir()}

	t.Run("link", func(t *testing.T) {
		wl, _ := newLink(cfg)
		w := wl.(*linkWorkload)
		if _, err := w.setup(); err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		lost := 0
		for k := range 40 {
			if err := tr.op(func() error { return w.tracedOp(tr, k) }); err != nil {
				t.Fatal(err)
			}
			if w.verdicts[k] == 2 {
				lost++
			}
		}
		if tr.mismatches != 0 {
			t.Errorf("%d of 40 packets decomposed differently from Probe", tr.mismatches)
		}
		if lost == 0 || lost == 40 {
			t.Errorf("%d of 40 packets lost; the decode and loss paths should both run", lost)
		}
	})

	t.Run("sensing", func(t *testing.T) {
		wl, err := newSensing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := wl.(*sensingWorkload)
		if _, err := w.setup(); err != nil {
			t.Fatal(err)
		}
		p := newMeasureParts(&w.world, w.seed)
		for i := 0; i < sensingPass; i += 7 {
			node, tick := i/sensingTicks, i%sensingTicks
			want, _ := w.sensor.Measure(node, tick).MarshalBinary()
			got, _ := p.measure(newTracer(), node, tick).MarshalBinary()
			if !bytes.Equal(got, want) {
				t.Errorf("node %d tick %d: decomposed report differs from Measure", node, tick)
			}
		}
		// A decomposition built on the wrong seed must be caught.
		wrong := newMeasureParts(&w.world, w.seed+1)
		want, _ := w.sensor.Measure(1, 1).MarshalBinary()
		if got, _ := wrong.measure(newTracer(), 1, 1).MarshalBinary(); bytes.Equal(got, want) {
			t.Error("a decomposition with the wrong seed matched Measure")
		}
	})

	t.Run("ingest", func(t *testing.T) {
		wl, err := newIngest(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := wl.(*ingestWorkload)
		if _, err := w.setup(); err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		for i := range 300 {
			if err := tr.op(func() error { return w.tracedOp(tr, i) }); err != nil {
				t.Fatal(err)
			}
		}
		if tr.mismatches != 0 {
			t.Errorf("%d of 300 requests decomposed differently from ServeHTTP", tr.mismatches)
		}
		got, _ := w.shadow.MapBytes()
		want, _ := w.agg.MapBytes()
		if !bytes.Equal(got, want) {
			t.Error("shadow map differs from the served map")
		}
		if err := w.check(); err != nil {
			t.Error(err)
		}
	})
}

// TestLinkGateHoldsFixedValues: the link gate passes on a real pass and
// fails when every packet is lost or the clean waveform no longer
// decodes, though either keeps each packet's verdict self-consistent.
func TestLinkGateHoldsFixedValues(t *testing.T) {
	wl, _ := newLink(config{seed: 5, seconds: 1, out: t.TempDir()})
	w := wl.(*linkWorkload)
	if _, err := w.setup(); err != nil {
		t.Fatal(err)
	}
	for k := range linkPass {
		if err := w.op(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.check(); err != nil {
		t.Fatalf("real pass: %v", err)
	}
	verdicts := slices.Clone(w.verdicts)
	for k := range w.verdicts {
		w.verdicts[k] = 2
	}
	if err := w.check(); err == nil {
		t.Error("a pass that lost every packet passed the gate")
	}
	w.verdicts = verdicts
	w.tx = make(iq.Samples, len(w.tx))
	if err := w.check(); err == nil {
		t.Error("a waveform that does not decode passed the gate")
	}
}

// TestWaitClockReadsSchedstat: the allocation-free reader agrees with the
// kernel's text for the locked thread.
func TestWaitClockReadsSchedstat(t *testing.T) {
	wc := lockWaitClock()
	defer wc.release()
	if wc.fd < 0 {
		t.Skip("no /proc/thread-self/schedstat")
	}
	text := func() time.Duration {
		data, err := os.ReadFile("/proc/thread-self/schedstat")
		if err != nil {
			t.Fatal(err)
		}
		v, err := strconv.ParseInt(strings.Fields(string(data))[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return time.Duration(v)
	}
	for range 3 {
		lo := text()
		got := wc.read()
		if hi := text(); got < lo || got > hi {
			t.Fatalf("read %v, kernel text %v then %v", got, lo, hi)
		}
		runtime.Gosched()
	}
}

// TestCampaignRefusesOverCapacity: a run long enough to overflow one
// server's campaign capacity is refused before it starts, and leaves no
// state behind.
func TestCampaignRefusesOverCapacity(t *testing.T) {
	out := t.TempDir()
	_, err := newCampaign(config{workload: "campaign", seed: 1, seconds: 600, out: out})
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("got %v, want a refusal", err)
	}
	if ents, _ := os.ReadDir(out); len(ents) != 0 {
		t.Errorf("refused run left %d entries in its output directory", len(ents))
	}
}
