package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median and percentile work on copies; the caller's order is kept.
func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank percentile p (0..100) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// procUsage is what /proc says a process has consumed so far.
type procUsage struct {
	cpuSeconds float64 // user + system
	minorFault uint64
	majorFault uint64
}

const clockTick = 100 // USER_HZ; fixed at 100 on every Linux port Go supports

func readProc(pid int) (procUsage, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procUsage{}, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from after the closing parenthesis (field 3, "state").
	s := string(blob)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return procUsage{}, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	num := func(field int) uint64 { // field numbers as in proc(5)
		v, _ := strconv.ParseUint(f[field-3], 10, 64)
		return v
	}
	return procUsage{
		cpuSeconds: float64(num(14)+num(15)) / clockTick,
		minorFault: num(10),
		majorFault: num(12),
	}, nil
}

// usage sums readProc over pids.
func usage(pids []int) (procUsage, error) {
	var sum procUsage
	for _, pid := range pids {
		u, err := readProc(pid)
		if err != nil {
			return sum, err
		}
		sum.cpuSeconds += u.cpuSeconds
		sum.minorFault += u.minorFault
		sum.majorFault += u.majorFault
	}
	return sum, nil
}

// residentSet sums the resident set (VmRSS) of pids, in bytes. This process
// first returns the heap it has freed to the OS: what is left is what the
// index and the harness hold, not what the collector had yet to give back.
func residentSet(pids []int) (int64, error) {
	var sum int64
	for _, pid := range pids {
		if pid == os.Getpid() {
			debug.FreeOSMemory()
		}
		blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		_, rest, ok := strings.Cut(string(blob), "VmRSS:")
		if !ok {
			return 0, fmt.Errorf("/proc/%d/status has no VmRSS", pid)
		}
		kb, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/status VmRSS: %w", pid, err)
		}
		sum += kb << 10
	}
	return sum, nil
}

var calibSink uint64

// calibrate times a fixed spin that touches no memory: it takes the same
// time on a quiet host whatever the code under test does, so its spread
// over a run says how steady the host was, not how good the code is.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return ms(time.Since(start))
}

// noisyCalibSpread is the calibration spread (interquartile range over
// median) above which a run is labelled noisy_host, so a failed agreement check can be told from a regression.
const noisyCalibSpread = 0.05

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// window is one slice of the timed phase: a fixed number of ops.
type window struct {
	ops      int
	wall     time.Duration
	searchMs []float64 // latency of each search op
}

func (w *window) qps() float64 { return float64(w.ops) / w.wall.Seconds() }

// acrossWindows is the median over windows of f: one disturbed window moves
// nothing.
func acrossWindows(ws []window, f func(w *window) float64) float64 {
	v := make([]float64, len(ws))
	for i := range ws {
		v[i] = f(&ws[i])
	}
	return median(v)
}
