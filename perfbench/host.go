package main

import (
	"runtime"
	"syscall"
	"time"
)

// Host-speed normalization.
//
// The benchmark shares its host with other tenants, and their load slows
// this process's throughput-bound code by up to 70%, for stretches that
// last from a fraction of a second to minutes. No statistic of one run
// removes a slowdown that lasts the whole run, so every timing is scaled
// by the host's measured speed: a fixed probe kernel runs between the
// ops, at least every probeInterval, and each op's time is multiplied by
// probeRef over the probe time around it. Timings therefore read as on a
// host where the probe takes probeRef.
//
// The probe is the benchmark's own code and runs none of the program's,
// so a change to the program should move the normalized timings as it
// moves the raw ones. EVIDENCE.md holds the A/B runs that check this with
// a known slowdown injected into the program, once in CPU time and once
// in allocations (whose extra garbage collection could slow the probe).
// The log prints the raw figures and the probe's range next to the
// normalized metrics, and a traced run reports the raw figures of its
// untraced phase as the host.* metrics.

const (
	// probeRef is the probe's time on a quiet host.
	probeRef = 100 * time.Microsecond
	// probeInterval is how long ops run between two probes.
	probeInterval = 100 * time.Millisecond
)

// The probe's buffers are package arrays, outside the Go heap, so they
// add nothing to the live-heap metric.
var (
	probeCmplx [4096]complex128
	probeMem   [1 << 18]float64
	probeSink  float64
)

// probe times the host-speed reference kernel, the median of three runs.
func probe() time.Duration {
	a, b, c := probeOnce(), probeOnce(), probeOnce()
	return max(min(a, b), min(max(a, b), c))
}

// probeOnce runs the two halves of the reference kernel: complex
// multiply-accumulate over a 64 KiB buffer, like the FFT, channel and
// parsing loops, and a strided read-modify-write walk over 2 MiB, like
// memory-bound work. The walk counts at half weight.
func probeOnce() time.Duration {
	t0 := time.Now()
	acc := complex(0, 0)
	w := complex(0.99, 0.01)
	for range 8 {
		for i := range probeCmplx {
			probeCmplx[i] = probeCmplx[i]*w + 1
			acc += probeCmplx[i]
		}
	}
	t1 := time.Now()
	s := 0.0
	for i := 0; i < len(probeMem); i += 8 {
		probeMem[i]++
		s += probeMem[(i*7)&(len(probeMem)-1)]
	}
	t2 := time.Now()
	probeSink += real(acc) + s
	return t1.Sub(t0) + t2.Sub(t1)/2
}

// speed is the factor that scales a time measured between two probes to
// the reference host.
func speed(before, after time.Duration) float64 {
	return 2 * float64(probeRef) / float64(before+after)
}

// Run-queue waits.
//
// Other tenants' processes can also share this kernel's CPUs. The thread
// that drives the ops then waits in the run queue: its wall time grows
// while its CPU time and the op median do not, and the probe, a median of
// three short runs, does not see it. On a 2-vCPU VM, two busy loops beside
// a sensing run cut its wall-clock throughput from about 10,100 to 6,130
// ops/s, with p50 and CPU per op unchanged. So the driving goroutine is
// locked to its OS thread for the run, and the time the kernel counts that
// thread as runnable but off a CPU is taken out of each window's and each
// set-up's wall time before the speed factor scales it. A traced run
// reports the share taken out as host.runqueue_wait_share. On a host where
// the benchmark has the CPUs to itself the share is near 0: the program's
// own threads (the collector in every workload, the fleet pool in
// campaign, whose driving thread waits blocked, not runnable) do not fill
// both CPUs while the driving thread runs.

// waitClock reads the locked thread's run-queue wait from
// /proc/thread-self/schedstat without allocating. Where the kernel does
// not report it, it reads 0 and no time is taken out.
type waitClock struct {
	fd  int
	buf [128]byte
}

// lockWaitClock locks the calling goroutine to its thread and opens that
// thread's wait counter; release undoes both.
func lockWaitClock() *waitClock {
	runtime.LockOSThread()
	fd, err := syscall.Open("/proc/thread-self/schedstat", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		fd = -1
	}
	return &waitClock{fd: fd}
}

func (c *waitClock) release() {
	if c.fd >= 0 {
		syscall.Close(c.fd)
	}
	runtime.UnlockOSThread()
}

// read is the thread's total run-queue wait so far: the second field of
// "<on-cpu ns> <waiting ns> <timeslices>".
func (c *waitClock) read() time.Duration {
	if c.fd < 0 {
		return 0
	}
	n, err := syscall.Pread(c.fd, c.buf[:], 0)
	if err != nil {
		return 0
	}
	field, v := 0, int64(0)
	for _, b := range c.buf[:max(n, 0)] {
		switch {
		case b == ' ':
			if field == 1 {
				return time.Duration(v)
			}
			field++
		case field == 1 && b >= '0' && b <= '9':
			v = v*10 + int64(b-'0')
		}
	}
	return 0
}

// busy is d less the wait that occurred in it.
func busy(d, wait time.Duration) time.Duration {
	return d - min(max(wait, 0), d)
}
