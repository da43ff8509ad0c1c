package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/dsp"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/phy"
	"github.com/uwsdr/tinysdr/internal/sense"
)

// The sensing workload is the crowd-sourced spectrum sweep: for each
// (node, tick) of the default world, Sensor.Measure synthesizes the node's
// capture (NCO tones through Mobility links, then Noise), streams it
// through the chunked RX seam into Welch, and quantizes a report, which
// is marshaled and folded into an aggregator with IngestWire — the work
// sense.Sweep does per report, driven here from one goroutine.
//
// It runs the same channel stages as the link workload on 2,048-sample
// records, about 9x shorter, plus the Welch FFTs. Ingest is a few percent
// of it, so read the ingest workload for the aggregator. No LoRa, fleet or
// journal code runs, so a change confined to those must not move it.
//
// A pass is nodes 0..sensingNodes-1 × ticks 0..sensingTicks-1, node-major.
// The map after whole passes must equal the pass's sense.Sweep map merged
// once per pass; an op fails when a call errors or its report differs
// from the one the same (node, tick) produced before.

const (
	sensingNodes  = 2
	sensingTicks  = 256
	sensingPass   = sensingNodes * sensingTicks
	sensingWarmup = 2
	// sensingFFT and sensingThresholdDBm are the tinysdr-sense CLI's
	// defaults.
	sensingFFT          = 256
	sensingThresholdDBm = -85
)

type sensingWorkload struct {
	world sense.World
	seed  int64
	// ref is the canonical map of one pass, from sense.Sweep.
	ref []byte

	// Program state, rebuilt by every setup.
	sensor *sense.Sensor
	agg    *sense.Aggregator
	passes int // whole passes folded into agg

	// reports holds each op's first-seen wire CRC, with bit 32 set once
	// seen.
	reports []uint64

	dec *measureParts
}

func newSensing(cfg config) (workload, error) {
	w := &sensingWorkload{
		world:   sense.DefaultWorld(),
		seed:    par.SplitSeed(cfg.seed, 2),
		reports: make([]uint64, sensingPass),
	}
	res, err := sense.Sweep(w.sweepConfig())
	if err != nil {
		return nil, err
	}
	w.ref = res.MapBytes
	return w, nil
}

// sweepConfig is the pass as a sense.Sweep campaign at one worker per CPU.
func (w *sensingWorkload) sweepConfig() sense.SweepConfig {
	return sense.SweepConfig{
		World: w.world, FFTSize: sensingFFT,
		Nodes: sensingNodes, Ticks: sensingTicks,
		Seed: w.seed, Workers: runtime.NumCPU(),
		ThresholdDBm: sensingThresholdDBm,
	}
}

func (w *sensingWorkload) shape() shape {
	return shape{passLen: sensingPass, maxTailPct: 90}
}

// setup builds the Sensor (its Welch plan and link stages), a map and its
// aggregator, then runs sensingWarmup passes as warm-up.
func (w *sensingWorkload) setup() (time.Duration, error) {
	start := time.Now()
	s, err := sense.NewSensor(&w.world, sensingFFT, w.seed)
	if err != nil {
		return 0, err
	}
	m, err := sense.NewMap(sensingTicks, sensingFFT, w.world.SampleRate, sensingThresholdDBm)
	if err != nil {
		return 0, err
	}
	agg, err := sense.NewAggregator(m, 0)
	if err != nil {
		return 0, err
	}
	w.sensor, w.agg, w.passes = s, agg, 0
	for range sensingWarmup {
		for i := range sensingPass {
			if err := w.op(i); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

func (w *sensingWorkload) op(i int) error {
	wire, err := w.sensor.Measure(i/sensingTicks, i%sensingTicks).MarshalBinary()
	if err != nil {
		return err
	}
	if err := w.agg.IngestWire(wire); err != nil {
		return err
	}
	return w.ingested(i, wire)
}

// ingested checks op i's report against its first-seen one and counts
// whole passes.
func (w *sensingWorkload) ingested(i int, wire []byte) error {
	if i == sensingPass-1 {
		w.passes++
	}
	crc := 1<<32 | uint64(binary.LittleEndian.Uint32(wire[len(wire)-4:]))
	switch w.reports[i] {
	case 0:
		w.reports[i] = crc
	case crc:
	default:
		return fmt.Errorf("node %d tick %d: report changed", i/sensingTicks, i%sensingTicks)
	}
	return nil
}

// measureParts rebuilds Sensor.Measure from its public pieces, with its
// own stages and Welch stream built exactly as NewSensor builds them.
type measureParts struct {
	w      *sense.World
	seed   int64
	stream *dsp.WelchStream
	mobs   []*channel.Mobility
	noise  *channel.Noise
	tone   iq.Samples
	acc    iq.Samples
	chunk  iq.Samples
	psd    []float64
	rep    sense.Report
}

func newMeasureParts(w *sense.World, seed int64) *measureParts {
	p := &measureParts{
		w: w, seed: seed,
		stream: dsp.NewWelchPlan(sensingFFT).Stream(),
		mobs:   make([]*channel.Mobility, len(w.Emitters)),
		noise:  channel.NewNoise(w.NoiseFloorDBm),
		tone:   make(iq.Samples, w.TickSamples),
		acc:    make(iq.Samples, w.TickSamples),
		chunk:  make(iq.Samples, w.ChunkSamples),
		psd:    make([]float64, sensingFFT),
		rep:    sense.Report{SampleRate: w.SampleRate, Codes: make([]int16, sensingFFT)},
	}
	for j, e := range w.Emitters {
		p.mobs[j] = channel.NewMobility(w.Model, e.TxPowerDBm, 0, 0, 1, w.NodeSpeedMPS, w.SampleRate)
	}
	return p
}

// measure is Sensor.Measure with a span around each public call.
func (p *measureParts) measure(tr *tracer, node, tick int) *sense.Report {
	w := p.w
	nodeSeed := par.SplitSeed(p.seed, int64(node))
	tickSeed := par.SplitSeed(nodeSeed, int64(tick))
	t0 := float64(tick) * w.TickSeconds
	nodeStart := w.NodeStartM + float64(node)*w.NodeStepM + w.NodeSpeedMPS*t0
	clear(p.acc)
	for j, e := range w.Emitters {
		if !sense.EmitterActive(p.seed, j, tick, e.Duty) {
			continue
		}
		tr.call("dsp.nco", func() {
			var nco dsp.NCO
			nco.SetFrequency(e.FreqHz / w.SampleRate)
			for i := range p.tone {
				p.tone[i] = nco.Next()
			}
		})
		tr.call("channel.mobility", func() {
			mob := p.mobs[j]
			mob.StartM = nodeStart + e.OffsetM
			mob.Reset(par.SplitSeed(tickSeed, int64(j)+1))
			mob.ApplyInto(p.tone, p.tone)
		})
		p.acc.Add(p.tone)
	}
	tr.call("channel.noise", func() {
		p.noise.Reset(par.SplitSeed(tickSeed, 0))
		p.noise.ApplyInto(p.acc, p.acc)
	})
	st := phy.StreamSamples("sense", w.SampleRate, p.acc)
	tr.call("dsp.welch", p.stream.Reset)
	for {
		var n int
		var err error
		tr.call("phy.stream", func() { n, err = st.ReadChunk(p.chunk) })
		if err == io.EOF {
			break
		}
		tr.call("dsp.welch", func() { p.stream.Extend(p.chunk[:n]) })
	}
	tr.call("dsp.welch", func() { p.stream.FinishInto(p.psd, w.SampleRate) })
	tr.call("sense.quantize", func() {
		for i, v := range p.psd {
			p.rep.Codes[i] = sense.QuantizeDBm(v)
		}
	})
	p.rep.Node, p.rep.Tick = uint32(node), uint32(tick)
	return &p.rep
}

// tracedOp measures the op's report twice, decomposed and with the real
// Measure, checks the bytes agree, then marshals and ingests the real one
// under spans.
func (w *sensingWorkload) tracedOp(tr *tracer, i int) error {
	if w.dec == nil {
		w.dec = newMeasureParts(&w.world, w.seed)
	}
	node, tick := i/sensingTicks, i%sensingTicks
	decomposed, err := w.dec.measure(tr, node, tick).MarshalBinary()
	if err != nil {
		return err
	}
	rep := w.sensor.Measure(node, tick)
	var wire []byte
	tr.call("sense.report_marshal", func() { wire, err = rep.MarshalBinary() })
	if err != nil {
		return err
	}
	if !bytes.Equal(wire, decomposed) {
		tr.mismatch()
	}
	tr.call("sense.ingest_wire", func() { err = w.agg.IngestWire(wire) })
	if err != nil {
		return err
	}
	return w.ingested(i, wire)
}

// check compares the aggregated map with the sense.Sweep map of one pass
// merged once per pass: the map's cells are exact integer moments, so the
// two agree bit for bit only if every report was ingested exactly once
// per pass.
func (w *sensingWorkload) check() error {
	want, err := mergedCopies(w.ref, w.passes)
	if err != nil {
		return err
	}
	got, err := w.agg.MapBytes()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("map after %d passes differs from %d merged sense.Sweep maps", w.passes, w.passes)
	}
	return nil
}

// mergedCopies is the canonical map of n merged copies of the marshaled
// map ref.
func mergedCopies(ref []byte, n int) ([]byte, error) {
	var one, sum sense.Map
	if err := one.UnmarshalBinary(ref); err != nil {
		return nil, err
	}
	if err := sum.UnmarshalBinary(ref); err != nil {
		return nil, err
	}
	for range n - 1 {
		if err := sum.Merge(&one); err != nil {
			return nil, err
		}
	}
	return sum.MarshalBinary()
}

func (w *sensingWorkload) stats() []string {
	return []string{
		fmt.Sprintf("sensing.map_sha256 = %x (%d nodes × %d ticks, %d bytes)",
			sha256.Sum256(w.ref), sensingNodes, sensingTicks, len(w.ref)),
	}
}

func (w *sensingWorkload) layers(tr *tracer, traced *phase) (map[string]float64, error) {
	tot := tr.totals()
	n := traced.ops
	out := map[string]float64{}
	if lt := tot["channel.mobility"]; lt != nil {
		out["channel.mobility.calls_per_op"] = float64(lt.count) / float64(n)
	}
	for _, name := range []string{"dsp.nco", "channel.mobility", "channel.noise", "phy.stream",
		"dsp.welch", "sense.quantize", "sense.report_marshal", "sense.ingest_wire"} {
		out[name+".us_per_op"] = us(tot, name, n)
	}
	return out, nil
}

func (w *sensingWorkload) close() error { return nil }
