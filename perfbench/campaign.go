package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/uwsdr/tinysdr/internal/fleet"
	"github.com/uwsdr/tinysdr/internal/httpjson"
	"github.com/uwsdr/tinysdr/internal/journal"
	"github.com/uwsdr/tinysdr/internal/par"
)

// The campaign workload is the fleet campaign server an operator runs:
// self-healing broadcast OTA campaigns, with a fault mix and a quorum, on
// a journaled fleet.OpenServer in a temporary state directory. Each op is
// one campaign: POST /campaigns, Server.Wait, GET /campaigns/{id}/nodes,
// through the server's http.Handler in-process. Campaigns fan their
// shards out over the fleet's own pool at one worker per CPU, and the
// shard count is a multiple of the CPU count so the pool stays even.
//
// It is the only workload that loads journal and par, and it is
// allocation-heavy. No IQ code runs, so DSP, channel and sense changes
// must not move it. setup_s is the operator's restart time: OpenServer
// replaying and compacting the journal the warm-up campaigns left.
//
// A pass is campaignSpecs campaigns of distinct seeds, and a run is a
// fixed number of passes sized to --seconds (see passes), because the
// server retains every campaign: a time-limited run would retain a
// host-dependent number and its live heap would follow. An op fails unless
// its campaign ends done and its served per-node results are the bytes of
// fleet.Run of its spec; every warm-up campaign's served Result, and the
// last one of the run, must be byte-equal to fleet.Run's.

const (
	campaignSpecs = 16
	// campaignWarmup is the warm-up passes whose journal setup replays.
	campaignWarmup    = 2
	campaignShardSize = 20
	// campaignPassesPerSecond sizes a run: about the passes per second
	// of a quiet 2-vCPU host.
	campaignPassesPerSecond = 2.5
	// campaignFaults is the eval chaos sweep's base fault mix, with its
	// quorum and retry budget.
	campaignFaults      = "crash=0.0005,flashfail=0.01,bitrot=0.002,desync=0.03:4,duty=0.05,apoutage=0.002:8"
	campaignQuorum      = 0.8
	campaignRetryBudget = 2048
	// campaignWait bounds one campaign's wait; a campaign that takes
	// longer is a hung server, not a slow op.
	campaignWait = 2 * time.Minute
)

type campaignWorkload struct {
	passes  int    // passes per phase, sized to --seconds
	dir     string // removed by close
	warmDir string // the state the warm-up campaigns left
	specs   []fleet.Spec
	bodies  [][]byte // POST /campaigns bodies
	results [][]byte // JSON of fleet.Run of each spec
	nodes   [][]byte // expected GET /campaigns/{id}/nodes bodies

	// Program state, rebuilt by every setup.
	srv    *fleet.Server
	h      http.Handler
	setups int
	lastID string
	lastJ  int

	// Request and response objects, reused across ops.
	body        reportBody
	post, getNd *http.Request
	rw          respWriter

	// Traced-phase state: the live journal's record count and size when
	// tracing began, and the traced campaigns' node outcomes.
	tracing                bool
	baseRecords, baseBytes int
	nodesDone, nodesTotal  int
}

func newCampaign(cfg config) (workload, error) {
	dir, err := os.MkdirTemp(cfg.out, "campaign-")
	if err != nil {
		return nil, err
	}
	w := &campaignWorkload{
		passes:  max(1, int(math.Ceil(cfg.seconds*campaignPassesPerSecond))),
		dir:     dir,
		warmDir: filepath.Join(dir, "warm"),
	}
	// Refuse a run that would overflow one server's campaign capacity.
	if n := (campaignWarmup + w.passes) * campaignSpecs; n > fleet.MaxCampaigns {
		w.close()
		return nil, fmt.Errorf("refusing to run: %d campaigns would exceed the server's %d-campaign capacity; use fewer --seconds",
			n, fleet.MaxCampaigns)
	}
	if err := w.prepare(cfg); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// campaignShards is the smallest multiple of the CPU count that is at
// least 4.
func campaignShards() int {
	n := runtime.NumCPU()
	return (4 + n - 1) / n * n
}

// prepare fixes the specs and their expected outputs, then runs the
// warm-up passes on a journaled server whose state every setup restarts
// from.
func (w *campaignWorkload) prepare(cfg config) error {
	w.rw.reset()
	var err error
	if w.post, err = http.NewRequest(http.MethodPost, "http://fleet/campaigns", nil); err != nil {
		return err
	}
	if w.getNd, err = http.NewRequest(http.MethodGet, "http://fleet/campaigns", nil); err != nil {
		return err
	}
	seed := par.SplitSeed(cfg.seed, 4)
	for j := range campaignSpecs {
		spec := fleet.Spec{
			Name:        fmt.Sprintf("bench-%d", j),
			Seed:        par.SplitSeed(seed, int64(j)),
			Nodes:       campaignShards() * campaignShardSize,
			ShardSize:   campaignShardSize,
			Mode:        fleet.ModeBroadcast,
			Faults:      campaignFaults,
			Quorum:      campaignQuorum,
			RetryBudget: campaignRetryBudget,
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		res, err := fleet.Run(spec)
		if err != nil {
			return err
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		var rw respWriter
		rw.reset()
		httpjson.Write(&rw, http.StatusOK, res.Nodes)
		w.specs = append(w.specs, spec)
		w.bodies = append(w.bodies, body)
		w.results = append(w.results, want)
		w.nodes = append(w.nodes, rw.buf.Bytes())
	}

	srv, err := fleet.OpenServer(w.warmDir)
	if err != nil {
		return err
	}
	w.srv, w.h = srv, srv.Handler()
	for range campaignWarmup {
		for j := range campaignSpecs {
			if err := w.op(j); err != nil {
				return fmt.Errorf("warm-up campaign %d: %w", j, err)
			}
			if err := w.checkServed(); err != nil {
				return err
			}
		}
	}
	return w.drain()
}

// checkServed requires the last campaign's served Result to be
// byte-equal to fleet.Run of its spec.
func (w *campaignWorkload) checkServed() error {
	c, ok := w.srv.Get(w.lastID)
	if !ok {
		return fmt.Errorf("campaign %s not found", w.lastID)
	}
	got, err := json.Marshal(c.Result)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, w.results[w.lastJ]) {
		return fmt.Errorf("campaign %s: served Result differs from fleet.Run of its spec", w.lastID)
	}
	return nil
}

// drain stops the current server, waiting out its runner goroutines.
func (w *campaignWorkload) drain() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), campaignWait)
	defer cancel()
	err := w.srv.Drain(ctx)
	w.srv, w.h = nil, nil
	return err
}

func (w *campaignWorkload) shape() shape {
	return shape{passLen: campaignSpecs, maxTailPct: 90, passes: w.passes}
}

// setup restarts the server on a fresh copy of the warm-up state: journal
// replay plus compaction. Copying the directory is not timed.
func (w *campaignWorkload) setup() (time.Duration, error) {
	if err := w.drain(); err != nil {
		return 0, err
	}
	w.setups++
	state := filepath.Join(w.dir, fmt.Sprintf("state-%d", w.setups))
	if err := copyDir(w.warmDir, state); err != nil {
		return 0, err
	}
	start := time.Now()
	srv, err := fleet.OpenServer(state)
	if err != nil {
		return 0, err
	}
	w.srv, w.h = srv, srv.Handler()
	return time.Since(start), nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// create POSTs spec j and returns the new campaign's ID.
func (w *campaignWorkload) create(j int) (string, error) {
	w.body.Reset(w.bodies[j])
	w.post.Body, w.post.ContentLength = &w.body, int64(len(w.bodies[j]))
	w.rw.reset()
	w.h.ServeHTTP(&w.rw, w.post)
	if w.rw.code != http.StatusCreated {
		return "", fmt.Errorf("POST /campaigns: status %d: %s", w.rw.code, w.rw.buf.Bytes())
	}
	var c struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.rw.buf.Bytes(), &c); err != nil {
		return "", err
	}
	return c.ID, nil
}

// wait blocks until campaign id settles and requires it done.
func (w *campaignWorkload) wait(id string) error {
	ctx, cancel := context.WithTimeout(context.Background(), campaignWait)
	defer cancel()
	c, err := w.srv.Wait(ctx, id)
	if err != nil {
		return err
	}
	if c.Status != fleet.StatusDone {
		return fmt.Errorf("campaign %s ended %s: %s", id, c.Status, c.Error)
	}
	return nil
}

// fetchNodes GETs campaign id's per-node results and compares them with
// the expected bytes of spec j.
func (w *campaignWorkload) fetchNodes(id string, j int) error {
	w.getNd.URL.Path = "/campaigns/" + id + "/nodes"
	w.rw.reset()
	w.h.ServeHTTP(&w.rw, w.getNd)
	if w.rw.code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", w.getNd.URL.Path, w.rw.code)
	}
	if !bytes.Equal(w.rw.buf.Bytes(), w.nodes[j]) {
		return fmt.Errorf("campaign %s: served nodes differ from spec %d's", id, j)
	}
	return nil
}

func (w *campaignWorkload) op(j int) error {
	id, err := w.create(j)
	if err != nil {
		return err
	}
	w.lastID, w.lastJ = id, j
	if err := w.wait(id); err != nil {
		return err
	}
	return w.fetchNodes(id, j)
}

// tracedOp runs the campaign through the server under spans, then runs
// fleet.Run of the same spec with no server; the served Result must be
// byte-equal to Run's. Server self time is the create→wait→nodes span
// minus Run's.
func (w *campaignWorkload) tracedOp(tr *tracer, j int) error {
	if !w.tracing {
		recs, size, err := w.readJournal()
		if err != nil {
			return err
		}
		w.tracing, w.baseRecords, w.baseBytes = true, len(recs), size
	}
	var err error
	tr.call("fleet.server", func() {
		var id string
		tr.call("fleet.http.create", func() { id, err = w.create(j) })
		if err != nil {
			return
		}
		w.lastID, w.lastJ = id, j
		tr.call("fleet.wait", func() { err = w.wait(id) })
		if err != nil {
			return
		}
		tr.call("fleet.http.nodes", func() { err = w.fetchNodes(id, j) })
	})
	if err != nil {
		return err
	}
	var res *fleet.Result
	tr.callAlloc("fleet.run", func() { res, err = fleet.Run(w.specs[j]) })
	if err != nil {
		return err
	}
	w.nodesDone += res.Completed
	w.nodesTotal += len(res.Nodes)
	if got, err := json.Marshal(res); err != nil || !bytes.Equal(got, w.results[j]) {
		tr.mismatch()
	}
	if w.checkServed() != nil {
		tr.mismatch()
	}
	return nil
}

func journalPath(stateDir string) string {
	return filepath.Join(stateDir, fleet.JournalName)
}

// readJournal parses the live server's journal, returning its records and
// size.
func (w *campaignWorkload) readJournal() ([]journal.Record, int, error) {
	data, err := os.ReadFile(journalPath(w.stateDir()))
	if err != nil {
		return nil, 0, err
	}
	recs, good, err := journal.Parse(data)
	if err != nil {
		return nil, 0, err
	}
	if good != len(data) {
		return nil, 0, fmt.Errorf("journal has a %d-byte torn tail", len(data)-good)
	}
	return recs, len(data), nil
}

// stateDir is the live server's state directory.
func (w *campaignWorkload) stateDir() string {
	return filepath.Join(w.dir, fmt.Sprintf("state-%d", w.setups))
}

// check requires the last campaign's served Result to equal fleet.Run of
// its spec; each op already required its campaign done with the expected
// per-node results.
func (w *campaignWorkload) check() error { return w.checkServed() }

func (w *campaignWorkload) stats() []string {
	h := sha256.New()
	for _, r := range w.results {
		h.Write(r)
	}
	return []string{fmt.Sprintf("campaign.results_sha256 = %x (%d specs of %d nodes)",
		h.Sum(nil), campaignSpecs, campaignShards()*campaignShardSize)}
}

func (w *campaignWorkload) layers(tr *tracer, traced *phase) (map[string]float64, error) {
	recs, size, err := w.readJournal()
	if err != nil {
		return nil, err
	}
	n := traced.ops
	added := recs[w.baseRecords:]
	out := map[string]float64{
		"journal.records_per_op": float64(len(added)) / float64(n),
		"journal.bytes_per_op":   float64(size-w.baseBytes) / float64(n),
		"fleet.nodes_done_share": float64(w.nodesDone) / float64(w.nodesTotal),
	}
	if out["journal.append.us_per_record"], err = w.timeAppends(added); err != nil {
		return nil, err
	}
	if out["journal.replay.ms"], out["journal.compact.ms"], err = w.timeReplay(); err != nil {
		return nil, err
	}
	if out["fleet.recover.ms"], err = w.timeRecover(); err != nil {
		return nil, err
	}
	if out["par.speedup"], err = w.timeSpeedup(); err != nil {
		return nil, err
	}
	tot := tr.totals()
	out["fleet.run.ms_per_op"] = us(tot, "fleet.run", n) / 1e3
	out["fleet.run.allocs_per_op"] = float64(tr.allocs["fleet.run"]) / float64(n)
	out["fleet.server.self_ms_per_op"] = (us(tot, "fleet.server", n) - us(tot, "fleet.run", n)) / 1e3
	out["fleet.http.nodes_ms_per_op"] = us(tot, "fleet.http.nodes", n) / 1e3
	return out, nil
}

// timeAppends re-appends the traced phase's records into a fresh journal
// and returns the mean append time in microseconds.
func (w *campaignWorkload) timeAppends(recs []journal.Record) (float64, error) {
	j, _, err := journal.Open(filepath.Join(w.dir, "append.journal"))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			j.Close()
			return 0, err
		}
	}
	d := time.Since(start)
	if err := j.Close(); err != nil {
		return 0, err
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(len(recs)), nil
}

// timeReplay opens a copy of the live journal, which parses and replays
// every record, then compacts it; it returns both times in milliseconds.
func (w *campaignWorkload) timeReplay() (replay, compact float64, err error) {
	dst := filepath.Join(w.dir, "replay")
	if err := copyDir(w.stateDir(), dst); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	j, recs, err := journal.Open(journalPath(dst))
	if err != nil {
		return 0, 0, err
	}
	replay = time.Since(start).Seconds() * 1e3
	start = time.Now()
	err = j.Compact(recs)
	compact = time.Since(start).Seconds() * 1e3
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return replay, compact, err
}

// timeRecover restarts a server on a copy of the live state directory
// and returns the time OpenServer took in milliseconds.
func (w *campaignWorkload) timeRecover() (float64, error) {
	dst := filepath.Join(w.dir, "recover")
	if err := copyDir(w.stateDir(), dst); err != nil {
		return 0, err
	}
	start := time.Now()
	srv, err := fleet.OpenServer(dst)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), campaignWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return 0, err
	}
	return d.Seconds() * 1e3, nil
}

// timeSpeedup runs spec 0 with one worker and with one per CPU, three
// times each alternating, and returns the ratio of the median times.
func (w *campaignWorkload) timeSpeedup() (float64, error) {
	var one, all []float64
	for range 3 {
		for _, workers := range []int{1, runtime.NumCPU()} {
			spec := w.specs[0]
			spec.Workers = workers
			start := time.Now()
			if _, err := fleet.Run(spec); err != nil {
				return 0, err
			}
			d := time.Since(start).Seconds()
			if workers == 1 {
				one = append(one, d)
			} else {
				all = append(all, d)
			}
		}
	}
	return median(one) / median(all), nil
}

// close drains the server, so no campaign runner outlives the workload,
// and removes the state directories.
func (w *campaignWorkload) close() error {
	err := w.drain()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}
