package eval

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/uwsdr/tinysdr/internal/phy"
	"github.com/uwsdr/tinysdr/internal/sim/scenario"
	"github.com/uwsdr/tinysdr/internal/trace"
)

// TraceReplay exercises the record/replay trace store end to end as a
// cross-version A/B experiment: record the -phy victim through the
// composed -scenario channel, round-trip the capture through an on-disk
// store (Put, GC, Get), and replay it at the configured worker count with
// trace.Verify, which requires every packet's loss and the RSSI to match
// the recorded run bit-for-bit. The table also reports what the store
// costs: raw capture size, lzo-compressed size on disk, and blob
// deduplication.
func TraceReplay(cfg Config) (*Result, error) {
	phyName := cfg.PHY
	if phyName == "" {
		phyName = "lora"
	}
	spec := cfg.Scenario
	if spec == "" {
		spec = "fading=rician:12,cfojitter=50"
	}
	packets := 16
	if cfg.Quick {
		packets = 6
	}

	tx, err := phy.New(phyName)
	if err != nil {
		return nil, err
	}
	rx, err := phy.New(phyName)
	if err != nil {
		return nil, err
	}
	parsed, err := scenario.Parse(spec)
	if err != nil {
		return nil, err
	}
	sc, err := parsed.Build(scenario.Link{
		SampleRate: rx.SampleRate(),
		RSSIdBm:    rx.SensitivityDBm() + 6,
		FloorDBm:   rx.NoiseFloorDBm(),
	})
	if err != nil {
		return nil, err
	}
	link, err := phy.Open(tx, rx, sc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Record(link, trace.Meta{
		PHY:        phyName,
		Seed:       cfg.Seed,
		SampleRate: rx.SampleRate(),
		Bits:       13,
		Scenario:   spec,
		Payload:    []byte("tinysdr-phy-golden"),
	}, packets)
	if err != nil {
		return nil, err
	}

	// Round-trip through a throwaway on-disk store, including a GC pass
	// (which must remove nothing while the manifest is live).
	dir, err := os.MkdirTemp("", "tinysdr-trace-eval")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := trace.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	if err := store.Put("eval", tr); err != nil {
		return nil, err
	}
	removed, err := store.GC()
	if err != nil {
		return nil, err
	}
	if len(removed) != 0 {
		return nil, fmt.Errorf("eval: gc removed %d live blobs", len(removed))
	}
	stored, err := store.Get("eval")
	if err != nil {
		return nil, err
	}

	// The A/B gate proper: the replay must reproduce the recorded run.
	if err := trace.Verify(stored, cfg.Workers); err != nil {
		return nil, fmt.Errorf("eval: replay diverged from the recording: %w", err)
	}
	recorded := tr.Manifest.Stats()

	rawBytes := 0
	for _, b := range stored.Blobs {
		rawBytes += len(b.Codes)
	}
	storedBytes := 0
	blobDir := filepath.Join(store.Dir(), "blobs")
	entries, err := os.ReadDir(blobDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		storedBytes += int(info.Size())
	}
	ratio := float64(rawBytes) / float64(storedBytes)
	dedup := packets - len(stored.Blobs)

	rows := [][]string{
		{"Victim / scenario", fmt.Sprintf("%s / %q", phyName, spec)},
		{"Packets recorded", fmt.Sprintf("%d (PER %.3f, RSSI %.2f dBm)", recorded.Packets, recorded.PER, recorded.RSSIdBm)},
		{"Raw capture", fmt.Sprintf("%d bytes in %d blobs (%d deduplicated)", rawBytes, len(stored.Blobs), dedup)},
		{"On disk (lzo)", fmt.Sprintf("%d bytes, ratio %.2fx", storedBytes, ratio)},
	}
	text := RenderTable([]string{"Quantity", "Value"}, rows)
	return &Result{ID: "tracereplay", Title: "Trace record/replay A/B gate", Text: text,
		Metrics: map[string]float64{
			"packets":           float64(recorded.Packets),
			"per":               recorded.PER,
			"rssi_dBm":          recorded.RSSIdBm,
			"raw_bytes":         float64(rawBytes),
			"stored_bytes":      float64(storedBytes),
			"compression_ratio": ratio,
			"blobs":             float64(len(stored.Blobs)),
		}}, nil
}
