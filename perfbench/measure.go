package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of ds (0 for no samples).
// It sorts ds in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

// median returns the median of xs (0 for none). It sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0, so a layer with no samples reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtimeSample is a point-in-time read of the Go runtime counters the
// per-layer runtime metrics are deltas of.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU, idleCPU           float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
		idleCPU:      s[5].Value.Float64(),
	}
}

// runtimeDelta turns two samples around a timed phase of ops operations
// into the per-layer runtime metrics. The runtime refreshes its CPU
// classes at GC boundaries, so gc_cpu_frac is the runtime's own
// estimate: GC CPU over the busy (non-idle) CPU of the phase.
func runtimeDelta(a, b runtimeSample, ops int) map[string]float64 {
	n := float64(ops)
	busy := (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU)
	return map[string]float64{
		"runtime.alloc_kb_per_op":   float64(b.allocBytes-a.allocBytes) / 1024 / n,
		"runtime.mallocs_per_op":    float64(b.allocObjects-a.allocObjects) / n,
		"runtime.gc_cycles_per_kop": float64(b.gcCycles-a.gcCycles) * 1000 / n,
		"runtime.gc_cpu_frac":       ratio(b.gcCPU-a.gcCPU, busy),
	}
}

// liveHeapMB forces a full collection and returns the live heap in MB
// (10^6 bytes).
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current RSS (clear_refs value 5), so the next peakRSSMB reads the peak
// since now.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// medianSetup runs setup reps times and returns the median duration and
// the state the last repetition built. Earlier repetitions are torn
// down by their own release function.
func medianSetup[T any](reps int, setup func() (T, func(), error)) (T, time.Duration, error) {
	var last T
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		st, release, err := setup()
		d := time.Since(t0)
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, d)
		if i < reps-1 && release != nil {
			release()
		}
		last = st
	}
	return last, quantile(ds, 0.5), nil
}

// cpuSample is the process's CPU time and the host's CPU tick counters,
// read around a timed phase to show how much of the machine the phase
// got: a phase slowed by other tenants shows as steal or as fewer cores.
type cpuSample struct {
	process      time.Duration
	steal, total uint64
}

func readCPU() cpuSample {
	var s cpuSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.process = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			break
		}
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// cpuNote describes the machine share a phase of wall length got.
func cpuNote(a, b cpuSample, wall time.Duration) string {
	steal := 0.0
	if b.total > a.total {
		steal = float64(b.steal-a.steal) / float64(b.total-a.total)
	}
	return fmt.Sprintf("timed phase: wall %.3f s, process cpu %.3f s (%.2f cores), host steal %.2f%%",
		wall.Seconds(), (b.process - a.process).Seconds(), float64(b.process-a.process)/float64(wall), steal*100)
}
