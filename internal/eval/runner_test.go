package eval

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/uwsdr/tinysdr/internal/par"
)

func TestRunTrialsOrderAndStateIsolation(t *testing.T) {
	type state struct{ calls int }
	results, err := runTrials(8, 100,
		func() (*state, error) { return &state{}, nil },
		func(s *state, trial int) (int, error) {
			s.calls++
			return trial * trial, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, r, i*i)
		}
	}
}

func TestRunTrialsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		_, err := forTrials(workers, 50, func(trial int) (int, error) {
			if trial%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("trial %d failed", trial)
			}
			return trial, nil
		})
		if err == nil || err.Error() != "trial 3 failed" {
			t.Fatalf("workers=%d: err = %v, want lowest-index trial 3", workers, err)
		}
	}
}

func TestRunTrialsZero(t *testing.T) {
	results, err := forTrials[int](4, 0, func(int) (int, error) {
		return 0, errors.New("must not run")
	})
	if err != nil || len(results) != 0 {
		t.Fatalf("got %v, %v", results, err)
	}
}

func TestSplitSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for trial := 0; trial < 1000; trial++ {
		s := TrialSeed(1, trial)
		if seen[s] {
			t.Fatalf("TrialSeed collision at trial %d", trial)
		}
		seen[s] = true
	}
	if TrialSeed(1, 0) == TrialSeed(2, 0) {
		t.Error("different parents must give different substreams")
	}
	if TrialSeed(1, 5) != par.SplitSeed(1, 5) {
		t.Error("TrialSeed must be the SplitSeed substream")
	}
}

func TestSweepEnumeration(t *testing.T) {
	got := sweep(-6, 8, 1.75)
	if len(got) == 0 || got[0] != -6 {
		t.Fatalf("sweep start = %v", got)
	}
	// Must match the legacy inline loop exactly, including float
	// accumulation, so ported experiments reproduce seed-identical curves.
	var want []float64
	for m := -6.0; m <= 8; m += 1.75 {
		want = append(want, m)
	}
	if len(got) != len(want) {
		t.Fatalf("sweep has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// metricsFingerprint renders a metrics map deterministically for
// byte-identical comparison.
func metricsFingerprint(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%x;", k, m[k])
	}
	return s
}

// invarianceRun is what the worker-count checks compare of one run.
type invarianceRun struct {
	metrics     map[string]float64
	fingerprint string
	text        string
}

// invarianceRuns memoizes runs by experiment, adaptive mode and worker
// count, so the registry gate and the per-experiment checks below share
// runs instead of repeating them.
var (
	invarianceMu   sync.Mutex
	invarianceRuns = map[string]invarianceRun{}
)

func runForInvariance(t *testing.T, e Experiment, adaptive Adaptive, workers int) invarianceRun {
	t.Helper()
	key := fmt.Sprintf("%s/%v/%d", e.ID, adaptive.Enabled, workers)
	invarianceMu.Lock()
	defer invarianceMu.Unlock()
	if r, ok := invarianceRuns[key]; ok {
		return r
	}
	r, err := e.Run(Config{Quick: true, Seed: 1, Workers: workers, Adaptive: adaptive})
	if err != nil {
		t.Fatalf("%s workers=%d: %v", e.ID, workers, err)
	}
	run := invarianceRun{metrics: r.Metrics, fingerprint: metricsFingerprint(r.Metrics), text: r.Text}
	invarianceRuns[key] = run
	return run
}

// checkWorkerInvariance requires the runs of experiment id at each of
// workers to equal the run at workers[0] bit-for-bit, in the metrics and
// the rendered text. Metrics are compared through metricsFingerprint
// rather than JSON because some experiments report ±Inf, which
// encoding/json rejects.
func checkWorkerInvariance(t *testing.T, id string, adaptive Adaptive, workers ...int) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	want := runForInvariance(t, e, adaptive, workers[0])
	for _, w := range workers[1:] {
		got := runForInvariance(t, e, adaptive, w)
		if got.fingerprint != want.fingerprint {
			t.Errorf("%s: metrics differ between %d and %d workers:\n  %d: %s\n  %d: %s",
				id, workers[0], w, workers[0], want.fingerprint, w, got.fingerprint)
		}
		if got.text != want.text {
			t.Errorf("%s: rendered text differs between %d and %d workers", id, workers[0], w)
		}
	}
}

// TestRegistryWorkerInvariance is the worker-count determinism gate over
// every registered experiment: at a fixed seed, the 4- and 8-worker runs
// must equal the 1-worker run, with sequential stopping both off and on.
func TestRegistryWorkerInvariance(t *testing.T) {
	for _, e := range All() {
		for _, adaptive := range []Adaptive{{}, {Enabled: true}} {
			t.Run(fmt.Sprintf("%s/adaptive=%v", e.ID, adaptive.Enabled), func(t *testing.T) {
				checkWorkerInvariance(t, e.ID, adaptive, 1, 4, 8)
			})
		}
	}
}

// TestParallelRunnerDeterministic checks the first experiments ported to
// the parallel runner at 1, 4 and 8 workers.
func TestParallelRunnerDeterministic(t *testing.T) {
	for _, id := range []string{"fig11", "fig12", "fig15b"} {
		checkWorkerInvariance(t, id, Adaptive{}, 1, 4, 8)
	}
}

// TestFig14DeterministicAcrossWorkers covers the campus fleet fan-out.
func TestFig14DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fig14 is the slowest experiment")
	}
	checkWorkerInvariance(t, "fig14", Adaptive{}, 1, 8)
}
