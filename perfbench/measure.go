package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// workload is one named traffic mix. Its ops form a fixed pass of
// passLen ops derived from the seed; a measured phase repeats the pass
// until its time is up, so every run does identical simulated work.
type workload interface {
	// shape says how the workload is measured.
	shape() shape
	// setup builds the program state afresh and runs the warm-up ops. It
	// returns the time the program spent, which excludes the benchmark's
	// own bookkeeping; setup_s is the median over setupReps calls.
	setup() (time.Duration, error)
	// op runs op i of the pass untraced. An error is a failed op: a call
	// that returned an error, or an outcome that differs from the
	// expected one.
	op(i int) error
	// tracedOp runs op i through its decomposition into public calls,
	// recording a span around each, then the real call it decomposes.
	// A decomposition that disagrees with the real call is a mismatch on
	// tr, not a failed op.
	tracedOp(tr *tracer, i int) error
	// check runs the end-of-run correctness gates over every op so far.
	check() error
	// stats are the simulated statistics; they repeat exactly for a seed.
	stats() []string
	// layers derives the per-layer metrics from the traced phase. It runs
	// after check, and may time further one-off layer calls.
	layers(tr *tracer, traced *phase) (map[string]float64, error)
	// close releases everything the workload holds; it stops every
	// goroutine the workload started and removes its state directories.
	close() error
}

// setupReps is how many complete set-ups a run times; setup_s is their
// median.
const setupReps = 9

// maxSamples caps the per-op latencies one phase records.
const maxSamples = 1 << 24

// shape is how a workload is measured.
type shape struct {
	// passLen is the number of ops in one pass.
	passLen int
	// maxTailPct is the highest tail percentile the workload reports.
	maxTailPct float64
	// passes, when positive, is the fixed number of passes a phase runs
	// instead of running passes until its time is up: the workload's
	// retained state, and so its live heap, grows with every op.
	passes int
}

// result is a measured run before printing.
type result struct {
	attempted, failed int
	firstErr          error
	gateErr           error
	metrics           map[string]float64
	stats             []string
	notes             []string
}

// measureWorkload times setupReps set-ups, then the untraced phase, or in
// a traced run a short untraced phase followed by the traced one.
func measureWorkload(cfg config, w workload) (*result, error) {
	wc := lockWaitClock()
	defer wc.release()
	setups := make([]float64, setupReps)
	raw := make([]float64, setupReps)
	waits := make([]float64, setupReps)
	for r := range setups {
		runtime.GC() // garbage from the previous set-up is not charged to this one
		before := probe()
		wait0 := wc.read()
		d, err := w.setup()
		wait := wc.read() - wait0
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		raw[r], waits[r] = d.Seconds(), wait.Seconds()
		setups[r] = busy(d, wait).Seconds() * speed(before, probe())
	}
	sh := w.shape()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	passes := sh.passes
	res := &result{}
	if !cfg.trace {
		ph, err := measure(plan{budget: budget, passes: passes}, sh, wc, w.op)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		res.attempted, res.failed, res.firstErr = ph.ops, ph.failed, ph.firstErr
		res.gateErr = w.check()
		res.metrics = ph.endToEnd()
		res.metrics["setup_s"] = median(setups)
		res.stats = w.stats()
		res.notes = append(res.notes,
			fmt.Sprintf("setup_s is the median of %d set-ups, normalized %v, raw %v, run-queue wait %v", len(setups), setups, raw, waits),
			ph.describe(sh))
		return res, nil
	}

	// The untraced third measures the throughput the traced phase is
	// compared against; the traced phase stops early once the span
	// buffer is full, which bounds its memory.
	untracedPasses, tracedPasses := 0, 0
	if passes > 0 {
		untracedPasses = (passes + 2) / 3
		tracedPasses = max(1, passes-untracedPasses)
	}
	untraced, err := measure(plan{budget: budget / 3, passes: untracedPasses}, sh, wc, w.op)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	tr := newTracer()
	traced, err := measure(
		plan{budget: budget - budget/3, passes: tracedPasses, more: func() bool { return len(tr.spans) < spanSoftCap }},
		sh, wc, func(i int) error { return tr.op(func() error { return w.tracedOp(tr, i) }) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res.attempted = untraced.ops + traced.ops
	res.failed = untraced.failed + traced.failed
	res.firstErr = untraced.firstErr
	if res.firstErr == nil {
		res.firstErr = traced.firstErr
	}
	res.gateErr = w.check()
	layers, err := w.layers(tr, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res.metrics = map[string]float64{}
	for _, d := range perLayer {
		res.metrics[d.name] = 0
	}
	for k, v := range layers {
		if _, ok := res.metrics[k]; !ok {
			return nil, fmt.Errorf("%s: unlisted per-layer metric %s", cfg.workload, k)
		}
		res.metrics[k] = v
	}
	// The untraced phase's timings, normalized and raw, and the host
	// speed factor between them, so the normalization can be checked.
	res.metrics["host.ops_per_s"] = untraced.opsPerS
	res.metrics["host.raw_ops_per_s"] = untraced.rawOpsPerS
	res.metrics["host.op_p50_us"] = untraced.p50
	res.metrics["host.raw_op_p50_us"] = untraced.rawP50
	res.metrics["host.speed_factor"] = untraced.medSpeed
	res.metrics["host.runqueue_wait_share"] = untraced.waitShare
	res.metrics["trace.overhead_share"] = 1 - traced.opsPerS/untraced.opsPerS
	res.metrics["trace.mismatch_ops"] = float64(tr.mismatches)
	res.stats = w.stats()
	path, err := tr.write(cfg.out, cfg.workload)
	if err != nil {
		return nil, fmt.Errorf("%s: writing spans: %w", cfg.workload, err)
	}
	res.notes = append(res.notes,
		fmt.Sprintf("traced %d ops (%d spans, written to %s) after %d untraced ops; %d mismatched ops",
			traced.ops, len(tr.spans), path, untraced.ops, tr.mismatches),
		"untraced: "+untraced.describe(sh), "traced: "+traced.describe(sh))
	return res, nil
}

// plan bounds a measured phase: whole passes, at least one, until budget
// has elapsed, or exactly passes of them when passes > 0; either way it
// ends early at a pass boundary once more (when non-nil) returns false.
type plan struct {
	budget time.Duration
	passes int
	more   func() bool
}

// window is a stretch of ops between two host probes: their range in the
// latency record, the wall and CPU time they took, the driving thread's
// run-queue wait in it, and the host speed factor the probes around them
// measured.
type window struct {
	lo, hi          int
	wall, cpu, wait time.Duration
	speed           float64
}

// phase is one measured stretch of whole passes.
type phase struct {
	ops, failed, passes int
	firstErr            error
	windows             []window
	mallocs, allocBytes uint64
	heapLive            uint64

	// Normalized timings.
	opsPerS    float64
	cpuPerOp   float64 // microseconds
	p50, tail  float64 // microseconds
	tailPct    float64
	tailBeyond int
	// Raw figures, for the log and the traced run's host.* metrics.
	wall               time.Duration
	rawOpsPerS, rawP50 float64
	waitShare          float64
	minSpeed, medSpeed float64
	maxSpeed           float64
}

// endToEnd derives every end-to-end metric except setup_s.
func (p *phase) endToEnd() map[string]float64 {
	n := float64(p.ops)
	return map[string]float64{
		"ops_per_s":       p.opsPerS,
		"op_p50_us":       p.p50,
		"op_tail_us":      p.tail,
		"cpu_us_per_op":   p.cpuPerOp,
		"allocs_per_op":   float64(p.mallocs) / n,
		"alloc_kb_per_op": float64(p.allocBytes) / 1024 / n,
		"heap_live_mb":    float64(p.heapLive) / (1 << 20),
	}
}

// describe says where the timings came from.
func (p *phase) describe(sh shape) string {
	return fmt.Sprintf("%d passes of %d ops in %v (raw ops_per_s %.6g, raw op_p50_us %.6g, run-queue wait share %.4f); op_tail_us is p%g with %d ops beyond it; host speed factor over %d probe windows: min %.3f, median %.3f, max %.3f",
		p.passes, sh.passLen, p.wall, p.rawOpsPerS, p.rawP50, p.waitShare, p.tailPct, p.tailBeyond,
		len(p.windows), p.minSpeed, p.medSpeed, p.maxSpeed)
}

// measure runs the phase pl describes. The heap is collected before the
// phase so garbage from earlier work is not charged to it, and again
// after it, so heapLive is the live heap the phase left behind.
func measure(pl plan, sh shape, wc *waitClock, op func(i int) error) (*phase, error) {
	passLen := sh.passLen
	if passLen < 1 || passLen > maxSamples {
		return nil, fmt.Errorf("pass of %d ops outside [1, %d]", passLen, maxSamples)
	}
	lat, err := newSamples(maxSamples)
	if err != nil {
		return nil, err
	}
	defer lat.free()

	p := &phase{windows: make([]window, 0, 1024)}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	// A window closes at the first op boundary after probeInterval, even
	// mid-pass, so every op's time is scaled by probes at most about
	// probeInterval away from it.
	before := probe()
	win := window{}
	cpu0, t0, wait0 := cpuTime(), time.Now(), wc.read()
	closeWindow := func() {
		win.wall, win.cpu, win.hi = time.Since(t0), cpuTime()-cpu0, len(lat.ns)
		win.wait = wc.read() - wait0
		after := probe()
		win.speed = speed(before, after)
		before = after
		p.windows = append(p.windows, win)
		win = window{lo: len(lat.ns)}
		cpu0, t0, wait0 = cpuTime(), time.Now(), wc.read()
	}
	for done := false; !done; {
		for i := 0; i < passLen; i++ {
			t := time.Now()
			err := op(i)
			end := time.Now()
			lat.add(end.Sub(t))
			if err != nil {
				p.failed++
				if p.firstErr == nil {
					p.firstErr = fmt.Errorf("pass %d op %d: %w", p.passes, i, err)
				}
			}
			if end.Sub(t0) >= probeInterval {
				closeWindow()
			}
		}
		p.passes++
		done = time.Since(start) >= pl.budget
		if pl.passes > 0 {
			done = p.passes >= pl.passes
		}
		done = done || (pl.more != nil && !pl.more()) || len(lat.ns)+passLen > maxSamples
	}
	if win.lo < len(lat.ns) {
		closeWindow()
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	var msLive runtime.MemStats
	runtime.ReadMemStats(&msLive)
	p.ops = len(lat.ns)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.heapLive = msLive.HeapAlloc
	p.summarize(lat.ns, sh)
	return p, nil
}

// summarize scales each window's op times, wall time less its run-queue
// wait, and CPU time by its host speed factor and derives the timings. It runs after the phase's heap
// figures are read, so its own allocation is not charged to the phase.
func (p *phase) summarize(lat []uint32, sh shape) {
	raw := slices.Clone(lat)
	slices.Sort(raw)
	p.rawP50 = percentile(raw, 50) / 1e3
	var wall, cpu, rawWall, wait float64
	speeds := make([]float64, len(p.windows))
	for i, w := range p.windows {
		for j := w.lo; j < w.hi; j++ {
			lat[j] = uint32(math.Min(float64(lat[j])*w.speed, math.MaxUint32))
		}
		wall += busy(w.wall, w.wait).Seconds() * w.speed
		cpu += w.cpu.Seconds() * w.speed
		rawWall += w.wall.Seconds()
		wait += w.wait.Seconds()
		speeds[i] = w.speed
	}
	n := float64(len(lat))
	p.opsPerS = n / wall
	p.cpuPerOp = cpu * 1e6 / n
	p.rawOpsPerS = n / rawWall
	p.waitShare = wait / rawWall
	slices.Sort(speeds)
	p.minSpeed, p.medSpeed, p.maxSpeed = speeds[0], median(speeds), speeds[len(speeds)-1]

	slices.Sort(lat)
	p.p50 = percentile(lat, 50) / 1e3
	p.tailPct, p.tailBeyond = 50, beyond(len(lat), 50)
	for _, pct := range []float64{99, 90} {
		if pct <= sh.maxTailPct && beyond(len(lat), pct) >= 10 {
			p.tailPct, p.tailBeyond = pct, beyond(len(lat), pct)
			break
		}
	}
	p.tail = percentile(lat, p.tailPct) / 1e3
}

// percentile interpolates linearly between the two closest ranks of an
// ascending sample, in the sample's unit.
func percentile(sorted []uint32, pct float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := pct / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*(float64(sorted[lo+1])-float64(sorted[lo]))
}

// beyond is how many of n samples lie above the pct-th percentile.
func beyond(n int, pct float64) int {
	return n - int(math.Ceil(pct*float64(n)/100))
}

// median of a small sample, leaving it unsorted.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// samples records per-op latencies in nanoseconds outside the Go heap,
// so recording them adds nothing to the allocation and live-heap metrics
// of the code under test. The mapping is reserved up front and committed
// by the kernel only as it is written.
type samples struct {
	mem []byte
	ns  []uint32
}

func newSamples(capacity int) (*samples, error) {
	mem, err := syscall.Mmap(-1, 0, capacity*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reserving the latency buffer: %w", err)
	}
	return &samples{mem: mem, ns: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), capacity)[:0]}, nil
}

func (s *samples) add(d time.Duration) {
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	s.ns = append(s.ns, uint32(d))
}

func (s *samples) free() {
	s.ns = nil
	_ = syscall.Munmap(s.mem) // only fails for a mapping this type did not make
}
