package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// quantile reads a nearest-rank order statistic (q in (0,1]) from
// unsorted values; 0 for no values.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sorted(values)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median interpolates between the middle pair for even counts, as
// Python's statistics.median does - the comparison driver's rule.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sorted(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the
// self-check computes the spread the comparison driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	s := sorted(values)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField reads one "Key: value" integer from a /proc/self file,
// 0 when the file or key is missing (non-Linux hosts).
func procField(file, key string) int64 {
	f, err := os.Open("/proc/self/" + file)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		var v int64
		fmt.Sscan(strings.TrimSpace(rest), &v)
		return v
	}
	return 0
}

// writtenBytes is the byte count this process has passed to write
// syscalls (/proc/self/io wchar).
func writtenBytes() int64 { return procField("io", "wchar") }

// peakRSSMB is the process's high-water resident set (VmHWM, kB).
func peakRSSMB() float64 { return float64(procField("status", "VmHWM")) / 1024 }

// dirBytes sums the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return nil
		}
		if fi, ierr := d.Info(); ierr == nil {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// counters snapshots the counter values of the process-wide metrics
// registry; since subtracts an earlier snapshot. The program under
// test publishes these itself - the benchmark only reads them.
type counters map[string]int64

func snapshotCounters() counters {
	c := counters{}
	for _, row := range metrics.Default.Snapshot() {
		if row.Kind == metrics.KindCounter {
			c[row.Name] = row.Value
		}
	}
	return c
}

func (c counters) since(before counters) counters {
	d := counters{}
	for name, v := range c {
		d[name] = v - before[name]
	}
	return d
}

// share is 100·part/whole, 0 when the whole is 0 (an idle layer).
func share(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// runtimeStats captures the allocation and GC figures the driver.*
// metrics are differences of.
type runtimeStats struct {
	alloc uint64
	gcCPU time.Duration
}

func readRuntimeStats() runtimeStats {
	samples := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(samples)
	return runtimeStats{
		alloc: samples[0].Value.Uint64(),
		gcCPU: time.Duration(samples[1].Value.Float64() * float64(time.Second)),
	}
}
