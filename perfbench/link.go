package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"time"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/phy"
	"github.com/uwsdr/tinysdr/internal/radio"
	"github.com/uwsdr/tinysdr/internal/sim/scenario"
)

// The link workload is the per-packet kernel behind the PER experiments
// (fig10/11/15, scenario, coexistence, mobility): phy.Link.Probe on the
// coexistence victim, LoRa SF8/BW125 at OSR 2, under gain, Rician flat
// fading, CFO, a live BLE interferer and noise. The interferer power puts
// the link near its knee, so both the decode path and the loss path run
// in every pass.
//
// It loads the channel stages, LoRa demodulation and the FFT/dechirp
// kernels under it. No sense, fleet or journal code runs, so a change
// confined to those must not move this workload.
//
// One goroutine drives it; a pass is packets 0..linkPass-1 of one
// (scenario, seed) binding, and a simulated loss is an outcome, not a
// failure. An op fails when Probe errors or a packet's verdict differs
// from the one it had in the first pass. The run's gate holds the
// outcomes to values fixed here, not only to themselves: the clean
// waveform must decode, and the pass's PER must lie in the band the
// scenario is built for.

const (
	// linkPass is the packets per pass.
	linkPass = 512
	// linkWarmup is the packets probed in each set-up, after which the
	// Link's TX waveform cache and the demodulator scratch are warm.
	linkWarmup = 48
	// linkInterfererDBm is the BLE interferer's received power. With the
	// victim 8 dB over sensitivity it holds the link near 19% PER, where
	// fading alone loses about 17%.
	linkInterfererDBm = -98
	// linkPERMin and linkPERMax bound the pass's PER. Over seeds 1..10
	// it reads 0.148-0.205 (EVIDENCE.md), and one pass's binomial
	// standard deviation at 0.17 is 0.017, so the band is about seven of
	// them either side. A demodulator that loses every packet, or a
	// channel that no longer impairs the link, falls outside it.
	linkPERMin = 0.05
	linkPERMax = 0.35
)

// linkPayload is the victim packet.
var linkPayload = []byte("tinysdr-bench")

// linkStageNames name the scenario's stages, in signal-path order, for
// the channel.<stage>.us_per_op metrics.
var linkStageNames = []string{"channel.gain", "channel.fading", "channel.cfo", "channel.interferer", "channel.noise"}

type linkWorkload struct {
	seed int64

	// Program state, rebuilt by every setup.
	modem *lora.Modem
	sc    *channel.Scenario
	link  *phy.Link

	// verdicts holds each packet's first-seen outcome: 0 unseen,
	// 1 delivered, 2 lost.
	verdicts []uint8

	// The victim waveform, and traced-phase scratch: the decomposed
	// channel output, the reference output of Scenario.ApplyInto, and the
	// demodulated payload.
	tx, rx, ref iq.Samples
	pld         []byte
}

func newLink(cfg config) (workload, error) {
	return &linkWorkload{
		seed:     par.SplitSeed(cfg.seed, 1),
		verdicts: make([]uint8, linkPass),
	}, nil
}

func (w *linkWorkload) shape() shape {
	return shape{passLen: linkPass, maxTailPct: 90}
}

// build constructs the victim modem (its FFT plans and FIR), the BLE
// interferer waveform and the scenario, and opens the Link.
func (w *linkWorkload) build() error {
	p := lora.DefaultParams()
	p.OSR = 2
	m, err := lora.NewModem(p, radio.SX1276Profile())
	if err != nil {
		return err
	}
	rate := m.SampleRate()
	tx, err := m.ModulateInto(nil, linkPayload)
	if err != nil {
		return err
	}
	ble, err := scenario.DefaultInterfererWaveform("ble", rate)
	if err != nil {
		return err
	}
	it := channel.NewInterferer("ble", ble, linkInterfererDBm, max(len(tx)-len(ble), 1))
	sc := channel.NewScenario(
		channel.NewGain(m.SensitivityDBm()+8),
		channel.NewFlatFading(iq.FromDB(12)),
		channel.NewCFO(0, 100, 10, rate),
		it,
		channel.NewNoise(m.NoiseFloorDBm()),
	)
	link, err := phy.Open(m, m, sc, w.seed)
	if err != nil {
		return err
	}
	w.modem, w.sc, w.link = m, sc, link
	w.tx, w.rx, w.ref = tx, make(iq.Samples, len(tx)), make(iq.Samples, len(tx))
	return nil
}

func (w *linkWorkload) setup() (time.Duration, error) {
	start := time.Now()
	if err := w.build(); err != nil {
		return 0, err
	}
	for k := 0; k < linkWarmup; k++ {
		if err := w.op(k); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// verdict checks a packet's outcome against its first-seen one.
func (w *linkWorkload) verdict(k int, lost bool) error {
	v := uint8(1)
	if lost {
		v = 2
	}
	switch w.verdicts[k] {
	case 0:
		w.verdicts[k] = v
	case v:
	default:
		return fmt.Errorf("packet %d: lost=%t, first seen lost=%t", k, lost, !lost)
	}
	return nil
}

func (w *linkWorkload) op(k int) error {
	lost, err := w.link.Probe(linkPayload, k)
	if err != nil {
		return err
	}
	return w.verdict(k, lost)
}

// tracedOp rebuilds Probe from its public pieces: Scenario.Reset, each
// stage's ApplyInto in order (checked bit-equal to Scenario.ApplyInto),
// then DemodulateFrom; then it runs the real Probe and checks the verdicts
// agree. Probe's self time is its span minus the decomposed pieces.
func (w *linkWorkload) tracedOp(tr *tracer, k int) error {
	tr.call("channel.reset", func() { w.sc.Reset(w.seed, k) })
	stages := w.sc.Stages()
	tr.call(linkStageNames[0], func() { stages[0].ApplyInto(w.rx, w.tx) })
	for i, st := range stages[1:] {
		tr.call(linkStageNames[i+1], func() { st.ApplyInto(w.rx, w.rx) })
	}
	w.sc.Reset(w.seed, k)
	w.sc.ApplyInto(w.ref, w.tx)
	if !slices.Equal(w.rx, w.ref) {
		tr.mismatch()
	}
	var got []byte
	var derr error
	tr.callAlloc("lora.demod", func() { got, derr = w.modem.DemodulateFrom(w.pld, w.rx) })
	w.pld = got
	decomposedLost := derr != nil || !bytes.Equal(got, linkPayload)

	var lost bool
	var err error
	tr.call("phy.link.probe", func() { lost, err = w.link.Probe(linkPayload, k) })
	if err != nil {
		return err
	}
	if lost != decomposedLost {
		tr.mismatch()
	}
	return w.verdict(k, lost)
}

// check fails unless every packet of the pass has a verdict, the pass's
// PER lies in [linkPERMin, linkPERMax] and the victim waveform decodes to
// its payload without a channel; the per-op comparison already failed any
// packet whose outcome changed.
func (w *linkWorkload) check() error {
	for k, v := range w.verdicts {
		if v == 0 {
			return fmt.Errorf("packet %d never probed", k)
		}
	}
	if per := float64(w.lost()) / linkPass; per < linkPERMin || per > linkPERMax {
		return fmt.Errorf("PER %v outside [%v, %v]", per, linkPERMin, linkPERMax)
	}
	got, err := w.modem.DemodulateFrom(nil, w.tx)
	if err != nil {
		return fmt.Errorf("clean waveform: %w", err)
	}
	if !bytes.Equal(got, linkPayload) {
		return fmt.Errorf("clean waveform decoded to %q, want %q", got, linkPayload)
	}
	return nil
}

// lost counts the pass's lost packets.
func (w *linkWorkload) lost() int {
	n := 0
	for _, v := range w.verdicts {
		if v == 2 {
			n++
		}
	}
	return n
}

func (w *linkWorkload) stats() []string {
	return []string{
		fmt.Sprintf("link.per = %v (%d of %d packets lost)", float64(w.lost())/linkPass, w.lost(), linkPass),
		fmt.Sprintf("link.outcomes_sha256 = %x", sha256.Sum256(w.verdicts)),
	}
}

func (w *linkWorkload) layers(tr *tracer, traced *phase) (map[string]float64, error) {
	tot := tr.totals()
	n := traced.ops
	out := map[string]float64{
		"channel.reset.us_per_op":  us(tot, "channel.reset", n),
		"lora.demod.us_per_op":     us(tot, "lora.demod", n),
		"lora.demod.allocs_per_op": float64(tr.allocs["lora.demod"]) / float64(n),
		"link.per":                 float64(w.lost()) / linkPass,
	}
	pieces := out["channel.reset.us_per_op"] + out["lora.demod.us_per_op"]
	for _, name := range linkStageNames {
		out[name+".us_per_op"] = us(tot, name, n)
		pieces += out[name+".us_per_op"]
	}
	out["phy.link.self_us_per_op"] = us(tot, "phy.link.probe", n) - pieces
	return out, nil
}

func (w *linkWorkload) close() error { return nil }
