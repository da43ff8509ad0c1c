package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"github.com/uwsdr/tinysdr/internal/httpjson"
	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/sense"
)

// The ingest workload is the sense server an operator runs: its
// http.Handler, called with ServeHTTP in-process so loopback TCP noise
// stays out. A pass is ingestPass requests from one client in a closed
// loop: mostly POST /reports of pre-generated reports, a fixed share of
// CRC-corrupt reports that must get 400, and GET /map and GET
// /map/summary reads beside the writes. TSPR parse, CRC and Absorb
// dominate the writes, TSOM marshal the reads; the reads set the p99.
//
// No DSP runs here (the reports are generated before timing), so a DSP
// change must not move this workload. The benchmark reuses its request and
// response-writer objects, so its own allocations stay out of
// allocs_per_op. An op fails when its status code differs from the
// expected one; at the end the served map must equal a map Absorbing
// every valid report posted.

const (
	// The report pool: ingestNodes × ingestTicks reports of the default
	// world, which is also the map's geometry.
	ingestNodes = 64
	ingestTicks = 8
	ingestPass  = 2048
	// ingestWarmup is the passes each set-up serves.
	ingestWarmup = 12
	// Fixed per-pass request counts; the rest are valid POSTs. The reads
	// are 3% of the requests, so the p99 falls among them.
	ingestMapReads     = 41 // 2% GET /map
	ingestSummaryReads = 20 // 1% GET /map/summary
	ingestCorrupt      = 82 // 4% POSTs with a broken CRC
)

// Request kinds.
const (
	kindPost uint8 = iota
	kindCorrupt
	kindMap
	kindSummary
)

type ingestWorkload struct {
	world sense.World
	// pool holds the valid wire reports; corrupt[j] is pool[j] with one
	// code byte flipped, so its CRC fails.
	pool, corrupt [][]byte
	// kinds and picks are the pass: op i is a request of kinds[i] for
	// report picks[i].
	kinds []uint8
	picks []int

	// Program state, rebuilt by every setup.
	agg *sense.Aggregator
	h   http.Handler
	// posted counts the valid POSTs of each pool report since setup.
	posted []int
	// mapLen is the served map's size, which the geometry fixes.
	mapLen int

	// Request and response objects, reused across ops.
	body                   reportBody
	post, getMap, getSumry *http.Request
	rw                     respWriter

	// Traced-phase state: a shadow aggregator that receives every
	// traced POST through UnmarshalBinary and Ingest, and its writer.
	shadow       *sense.Aggregator
	shadowRW     respWriter
	tracedPosts  int
	ingestedBase uint64
}

// reportBody is a request body that can be re-pointed at new bytes.
type reportBody struct{ bytes.Reader }

func (*reportBody) Close() error { return nil }

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(b)
}

func (w *respWriter) reset() {
	if w.h == nil {
		w.h = http.Header{}
	}
	clear(w.h)
	w.code = 0
	w.buf.Reset()
}

func newIngest(cfg config) (workload, error) {
	w := &ingestWorkload{world: sense.DefaultWorld()}
	seed := par.SplitSeed(cfg.seed, 3)
	sensor, err := sense.NewSensor(&w.world, sensingFFT, seed)
	if err != nil {
		return nil, err
	}
	for node := range ingestNodes {
		for tick := range ingestTicks {
			wire, err := sensor.Measure(node, tick).MarshalBinary()
			if err != nil {
				return nil, err
			}
			bad := append([]byte(nil), wire...)
			bad[len(bad)/2] ^= 0x40
			w.pool = append(w.pool, wire)
			w.corrupt = append(w.corrupt, bad)
		}
	}
	rng := rand.New(rand.NewSource(par.SplitSeed(seed, 1)))
	w.kinds = make([]uint8, ingestPass)
	for i := range ingestMapReads {
		w.kinds[i] = kindMap
	}
	for i := range ingestSummaryReads {
		w.kinds[ingestMapReads+i] = kindSummary
	}
	for i := range ingestCorrupt {
		w.kinds[ingestMapReads+ingestSummaryReads+i] = kindCorrupt
	}
	rng.Shuffle(len(w.kinds), func(i, j int) { w.kinds[i], w.kinds[j] = w.kinds[j], w.kinds[i] })
	w.picks = make([]int, ingestPass)
	for i := range w.picks {
		w.picks[i] = rng.Intn(len(w.pool))
	}
	w.posted = make([]int, len(w.pool))
	if w.post, err = http.NewRequest(http.MethodPost, "http://sense/reports", nil); err != nil {
		return nil, err
	}
	if w.getMap, err = http.NewRequest(http.MethodGet, "http://sense/map", nil); err != nil {
		return nil, err
	}
	if w.getSumry, err = http.NewRequest(http.MethodGet, "http://sense/map/summary", nil); err != nil {
		return nil, err
	}
	w.rw.reset()
	w.shadowRW.reset()
	return w, nil
}

func (w *ingestWorkload) shape() shape {
	return shape{passLen: ingestPass, maxTailPct: 99}
}

// newMap is the ingest map: the pool's geometry, inside sense.MaxMapCells.
func (w *ingestWorkload) newMap() (*sense.Map, error) {
	if ingestTicks*sensingFFT > sense.MaxMapCells {
		return nil, fmt.Errorf("ingest map of %d cells over %d", ingestTicks*sensingFFT, sense.MaxMapCells)
	}
	return sense.NewMap(ingestTicks, sensingFFT, w.world.SampleRate, sensingThresholdDBm)
}

// setup builds the map, aggregator and handler, then serves
// ingestWarmup passes as warm-up.
func (w *ingestWorkload) setup() (time.Duration, error) {
	start := time.Now()
	m, err := w.newMap()
	if err != nil {
		return 0, err
	}
	agg, err := sense.NewAggregator(m, 0)
	if err != nil {
		return 0, err
	}
	w.agg, w.h = agg, sense.NewHandler(agg)
	clear(w.posted)
	for range ingestWarmup {
		for i := range ingestPass {
			if err := w.op(i); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// op sends op i's request and checks its status code.
func (w *ingestWorkload) op(i int) error {
	var req *http.Request
	want := http.StatusOK
	switch w.kinds[i] {
	case kindPost, kindCorrupt:
		wire := w.pool[w.picks[i]]
		want = http.StatusAccepted
		if w.kinds[i] == kindCorrupt {
			wire, want = w.corrupt[w.picks[i]], http.StatusBadRequest
		}
		w.body.Reset(wire)
		req = w.post
		req.Body, req.ContentLength = &w.body, int64(len(wire))
	case kindMap:
		req = w.getMap
	case kindSummary:
		req = w.getSumry
	}
	w.rw.reset()
	w.h.ServeHTTP(&w.rw, req)
	return w.served(i, want)
}

// served checks the response to op i.
func (w *ingestWorkload) served(i, want int) error {
	if w.rw.code != want {
		return fmt.Errorf("request kind %d: status %d, want %d: %s", w.kinds[i], w.rw.code, want, w.rw.buf.Bytes())
	}
	switch w.kinds[i] {
	case kindPost:
		w.posted[w.picks[i]]++
	case kindMap:
		if w.mapLen == 0 {
			w.mapLen = w.rw.buf.Len()
		}
		if w.rw.buf.Len() != w.mapLen {
			return fmt.Errorf("GET /map returned %d bytes, want %d", w.rw.buf.Len(), w.mapLen)
		}
	}
	return nil
}

// tracedOp serves the request under a span, then repeats its work on the
// shadow aggregator from the public pieces: UnmarshalBinary and Ingest
// for a POST, MapBytes or Summarize for a read, and httpjson rendering of
// the response. The shadow's responses must agree with the served ones.
func (w *ingestWorkload) tracedOp(tr *tracer, i int) error {
	if w.shadow == nil {
		b, err := w.agg.MapBytes()
		if err != nil {
			return err
		}
		var m sense.Map
		if err := m.UnmarshalBinary(b); err != nil {
			return err
		}
		if w.shadow, err = sense.NewAggregator(&m, 0); err != nil {
			return err
		}
		w.ingestedBase = w.agg.Stats().Ingested
	}
	var err error
	tr.callAlloc("sense.handler", func() { err = w.op(i) })
	if err != nil {
		return err
	}
	w.shadowRW.reset()
	switch w.kinds[i] {
	case kindPost, kindCorrupt:
		w.tracedPosts++
		wire := w.pool[w.picks[i]]
		if w.kinds[i] == kindCorrupt {
			wire = w.corrupt[w.picks[i]]
		}
		var rep sense.Report
		var perr, ierr error
		tr.call("sense.report_unmarshal", func() { perr = rep.UnmarshalBinary(wire) })
		if perr == nil {
			tr.call("sense.absorb", func() { ierr = w.shadow.Ingest(&rep) })
		}
		tr.call("httpjson.write", func() {
			switch {
			case perr != nil:
				httpjson.Error(&w.shadowRW, http.StatusBadRequest, perr)
			case ierr != nil:
				httpjson.Error(&w.shadowRW, http.StatusUnprocessableEntity, ierr)
			default:
				httpjson.Write(&w.shadowRW, http.StatusAccepted, w.shadow.Stats())
			}
		})
		if w.shadowRW.code != w.rw.code {
			tr.mismatch()
		}
	case kindMap:
		var b []byte
		tr.call("sense.map_marshal", func() { b, err = w.shadow.MapBytes() })
		if err != nil || !bytes.Equal(b, w.rw.buf.Bytes()) {
			tr.mismatch()
		}
	case kindSummary:
		var s sense.Summary
		tr.call("sense.summarize", func() { s = w.shadow.Summarize() })
		tr.call("httpjson.write", func() { httpjson.Write(&w.shadowRW, http.StatusOK, s) })
		if !bytes.Equal(w.shadowRW.buf.Bytes(), w.rw.buf.Bytes()) {
			tr.mismatch()
		}
	}
	return nil
}

// localMap Absorbs every valid report posted since setup into a fresh
// map, without the server.
func (w *ingestWorkload) localMap() ([]byte, error) {
	m, err := w.newMap()
	if err != nil {
		return nil, err
	}
	for j, n := range w.posted {
		var rep sense.Report
		if err := rep.UnmarshalBinary(w.pool[j]); err != nil {
			return nil, err
		}
		for range n {
			if err := m.Absorb(&rep); err != nil {
				return nil, err
			}
		}
	}
	return m.MarshalBinary()
}

// check requires the final GET /map to equal the locally Absorbed map of
// the valid reports posted.
func (w *ingestWorkload) check() error {
	w.rw.reset()
	w.h.ServeHTTP(&w.rw, w.getMap)
	if w.rw.code != http.StatusOK {
		return fmt.Errorf("final GET /map: status %d", w.rw.code)
	}
	want, err := w.localMap()
	if err != nil {
		return err
	}
	if !bytes.Equal(w.rw.buf.Bytes(), want) {
		return fmt.Errorf("served map differs from the locally absorbed map of %d valid reports", sum(w.posted))
	}
	return nil
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// passMap is the map of one pass's valid reports, which the seed alone
// fixes.
func (w *ingestWorkload) passMap() (*sense.Map, error) {
	m, err := w.newMap()
	if err != nil {
		return nil, err
	}
	for i, k := range w.kinds {
		if k != kindPost {
			continue
		}
		var rep sense.Report
		if err := rep.UnmarshalBinary(w.pool[w.picks[i]]); err != nil {
			return nil, err
		}
		if err := m.Absorb(&rep); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (w *ingestWorkload) stats() []string {
	m, err := w.passMap()
	var b []byte
	if err == nil {
		b, err = m.MarshalBinary()
	}
	if err != nil {
		return []string{"ingest.pass_map_sha256 = error: " + err.Error()}
	}
	return []string{fmt.Sprintf("ingest.pass_map_sha256 = %x (%d valid reports per pass)", sha256.Sum256(b), m.Reports)}
}

func (w *ingestWorkload) layers(tr *tracer, traced *phase) (map[string]float64, error) {
	tot := tr.totals()
	n := traced.ops
	out := map[string]float64{
		"sense.report_unmarshal.us_per_op": us(tot, "sense.report_unmarshal", n),
		"sense.absorb.us_per_op":           us(tot, "sense.absorb", n),
		"httpjson.write.us_per_op":         us(tot, "httpjson.write", n),
		"sense.handler.allocs_per_op":      float64(tr.allocs["sense.handler"]) / float64(n),
		"sense.map_marshal.us_per_read":    usPerCall(tot, "sense.map_marshal"),
		"sense.summarize.us_per_read":      usPerCall(tot, "sense.summarize"),
		"sense.accepted_share":             float64(w.agg.Stats().Ingested-w.ingestedBase) / float64(w.tracedPosts),
	}
	children := 0.0
	for _, name := range []string{"sense.report_unmarshal", "sense.absorb", "httpjson.write", "sense.map_marshal", "sense.summarize"} {
		children += us(tot, name, n)
	}
	out["sense.handler.self_us_per_op"] = us(tot, "sense.handler", n) - children
	return out, nil
}

func (w *ingestWorkload) close() error { return nil }
