package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The calibration is a fixed CPU workload of the benchmark's own: SHA-256
// over a fixed buffer, from the standard library only, so no change to the
// repository moves it. Timed between rounds, its thread CPU time says how
// fast the shared host runs at that moment, and cpu_ms_per_op is scaled by
// it. On the 2-vCPU host of the seed measurements, whole runs drifted by
// up to a third in CPU time per op as neighbours came and went; the scaling
// cut the metric's spread between runs by about a third. Sorting and a
// pointer chase through memory were tried as calibrations too and tracked
// the program worse: the chase in particular drifted on its own.

// calibRefMs is the calibration's CPU time on the host of the seed
// measurements (median over many runs), so cpu_ms_per_op reads in that
// host's milliseconds.
const calibRefMs = 0.86

// calibReps is how many timed calibrations run before each round.
const calibReps = 5

// calibInput is built on first use, so processes that never calibrate (the
// report-cold set-up probe) do not pay for it.
var calibInput = sync.OnceValue(func() []byte {
	b := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(b)
	return b
})

// calibSink keeps the calibration's result live.
var calibSink byte

// calibrate hashes the calibration input four times on a locked thread and
// returns the thread CPU time that took.
func calibrate() time.Duration {
	in := calibInput()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	for i := 0; i < 4; i++ {
		sum := sha256.Sum256(in)
		calibSink ^= sum[0]
	}
	return threadCPU() - t0
}

// threadCPU is the calling thread's CPU time, read from
// CLOCK_THREAD_CPUTIME_ID to the nanosecond; getrusage counts it only in
// scheduler ticks.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibrateRound runs the calibration once untimed, to bring its input back
// into cache, then calibReps times, appending each CPU time in
// milliseconds to samples.
func calibrateRound(samples []float64) []float64 {
	calibrate()
	for i := 0; i < calibReps; i++ {
		samples = append(samples, ms(calibrate()))
	}
	return samples
}

// refCPU scales a CPU time per op to the reference host's speed: the
// calibration's reference time over its median in this run.
func refCPU(msPerOp float64, calib []float64) float64 {
	return msPerOp * calibRefMs / median(calib)
}
