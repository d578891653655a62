package main

import (
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The calibration kernel reads how fast this machine's memory system is
// right now: a dependent chain of pseudo-random reads through a buffer far
// larger than any cache or TLB reach, so every step is a trip to DRAM. That
// is the resource the sandbox shares with its neighbours, and the one the
// map-heavy code under test is bound by: over minutes, throughput on this
// kind of box wanders by ±20 % with the neighbours' load, and the kernel
// wanders with it (README, "Speed normalisation"). It allocates nothing
// after its buffer and touches no program code, so a change to the program
// cannot move it.
//
// Single shots are noisy (±15 %), so nothing is ever scaled by one: shots
// are taken all through a run, between windows, and a run has one factor,
// from the median of all of them, and that factor is bounded.

const (
	calWords = 1 << 25 // 256 MiB of uint64
	calSteps = 1 << 17
	// calBurst is the number of shots taken at a time.
	calBurst = 5
	// calRefMs is the reference speed the timed end-to-end metrics are
	// brought to: a shot's usual length on the box the benchmark was defined
	// on. It is only a scale, and it must never change once results are
	// compared.
	calRefMs = 22.0
	// calMaxFactor bounds the correction. The kernel follows the neighbours'
	// load as the workload does, but it also feels things the workload
	// hardly does: when the host starts backing the guest with huge pages,
	// shots get up to twice as fast while throughput gains a fifth. Within
	// ±18 % the correction halves the run-to-run spread; past that it is the
	// kernel's own business, and is cut off.
	calMaxFactor = 1.18
)

type calibrator struct {
	buf  []uint64
	sink uint64
}

// theCalibrator is the process's one calibrator, built on first use.
var theCalibrator = sync.OnceValue(newCalibrator)

// newCalibrator maps its buffer outside the Go heap: a quarter of a
// gigabyte of live heap would make the collector run far less often than it
// does for the program alone, and the benchmark would measure that.
func newCalibrator() *calibrator {
	c := &calibrator{}
	if b, err := syscall.Mmap(-1, 0, calWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		c.buf = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), calWords)
	} else {
		c.buf = make([]uint64, calWords)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range c.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.buf[i] = x
	}
	return c
}

// shot runs the kernel once and returns its length in milliseconds.
func (c *calibrator) shot() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	idx := uint64(0)
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx = (c.buf[idx] ^ x) & (calWords - 1)
	}
	c.sink += idx
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// burst appends calBurst shots to shots.
func (c *calibrator) burst(shots []float64) []float64 {
	for i := 0; i < calBurst; i++ {
		shots = append(shots, c.shot())
	}
	return shots
}

// speedFactor is what a time measured while the shots were taken is
// multiplied by to bring it to reference speed (a rate is divided by it): on
// a box running slower than the reference the shots are longer, the factor
// is below 1, and times shrink by as much as the box was slow.
func speedFactor(shots []float64) float64 {
	m := median(shots)
	if m <= 0 {
		return 1
	}
	return min(max(calRefMs/m, 1/calMaxFactor), calMaxFactor)
}
