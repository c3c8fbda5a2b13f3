package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"jarvis/internal/obs"
)

// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID, the Linux clock id of the
// calling thread's CPU time.
const clockThreadCPU = 3

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

// threadCPU is the CPU time of the calling OS thread; callers hold
// runtime.LockOSThread so the thread runs only their goroutine.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// cpuSplit is CPU time split into user and kernel (system) time.
type cpuSplit struct{ user, sys time.Duration }

func (c cpuSplit) sub(d cpuSplit) cpuSplit { return cpuSplit{c.user - d.user, c.sys - d.sys} }

func (c cpuSplit) total() time.Duration { return c.user + c.sys }

// Linux getrusage targets.
const (
	rusageSelf   = 0 // RUSAGE_SELF: all threads of the process
	rusageThread = 1 // RUSAGE_THREAD: the calling thread
)

// rusageCPU is the user and system CPU time of the process or of the
// calling thread (whose caller holds runtime.LockOSThread).
func rusageCPU(who int) cpuSplit {
	var r syscall.Rusage
	if err := syscall.Getrusage(who, &r); err != nil {
		panic(fmt.Sprintf("getrusage(%d): %v", who, err))
	}
	return cpuSplit{time.Duration(r.Utime.Nano()), time.Duration(r.Stime.Nano())}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// goStats is a snapshot of the Go runtime's allocation and GC-pause
// totals (runtime/metrics).
type goStats struct {
	allocBytes float64
	gcPauseSec float64
}

func readGoStats() goStats {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	rtmetrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		g.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			g.gcPauseSec += float64(c) * (lo + hi) / 2
		}
	}
	return g
}

// stageTotals reads the program's stage_latency_seconds histograms
// (obs default registry): total seconds observed per stage.
func stageTotals() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("read stage histograms: %w", err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, `stage_latency_seconds_sum{stage="`)
		if !ok {
			continue
		}
		stage, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", line, err)
		}
		out[stage] = v
	}
	return out, sc.Err()
}

// span is one harness-recorded interval around a call into a layer.
// Agent and Seq identify the epoch (Seq is the shipper's sequence
// number; SP-side spans carry Agent 0 and their call number).
type span struct {
	Name    string `json:"name"`
	Agent   uint32 `json:"agent"`
	Seq     uint64 `json:"seq"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }
