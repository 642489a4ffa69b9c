package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// counters is a reading of the process-wide cost meters the end-to-end
// metrics are built from. Readings are taken outside the timed windows.
type counters struct {
	cpu    time.Duration // user+sys, getrusage(RUSAGE_SELF)
	allocs uint64        // heap objects allocated
	bytes  uint64        // heap bytes allocated
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readCounters() counters {
	var ru syscall.Rusage
	// The call cannot fail with RUSAGE_SELF and a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(allocSamples)
	return counters{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: allocSamples[0].Value.Uint64(),
		bytes:  allocSamples[1].Value.Uint64(),
	}
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, _ := strconv.ParseFloat(fields[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// window is one timed block of operations: the unit the throughput, CPU
// and allocation metrics are computed over. A run reports the median over
// its windows, so a scheduler stall that hits one window does not move the
// result.
type window struct {
	wall time.Duration
	ops  int
	rows int
	cost counters // delta over the window
	lo   int      // recorder.reads[lo:hi] are the window's latency samples
	hi   int
}

// recorder accumulates one run's measurements.
type recorder struct {
	reads     []float64 // per-op latency, ms (all ops where a workload has one kind)
	writes    []float64 // per-op latency of write ops, ms
	windows   []window
	attempted int
	failed    int
	firstErr  string
	// digests holds one hash per answer, in operation order: the traced
	// run compares the product API's against the staged pipeline's.
	digests []uint64
}

// fail counts one errored, refused or wrong-answer operation.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

func (r *recorder) measured() time.Duration {
	var d time.Duration
	for _, w := range r.windows {
		d += w.wall
	}
	return d
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by the nearest-rank method; it
// sorts a copy.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quiet returns the quieter half of the run's windows: those with the
// lowest median latency. Interference from other tenants of the host only
// ever adds time, and it comes in bursts that last a few windows; a change
// in the code moves every window. So the timing metrics are computed over
// the quieter half, which is far steadier from run to run than the whole.
// Every window holds the same operation mix, so the choice does not favour
// cheap operations.
func (r *recorder) quiet() []window {
	type ranked struct {
		w   window
		med float64
	}
	ws := make([]ranked, 0, len(r.windows))
	for _, w := range r.windows {
		if w.ops > 0 && w.hi > w.lo {
			ws = append(ws, ranked{w, median(r.reads[w.lo:w.hi])})
		}
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].med < ws[j].med })
	out := make([]window, (len(ws)+1)/2)
	for i := range out {
		out[i] = ws[i].w
	}
	return out
}

// endToEnd computes the end-to-end metrics of a finished run. Timings,
// rates and CPU come from the quiet windows; allocation counts, which
// interference cannot move, from all of them. setup is the median set-up
// time.
func (r *recorder) endToEnd(setup time.Duration) map[string]float64 {
	var lat []float64
	var q, all window
	for _, w := range r.quiet() {
		lat = append(lat, r.reads[w.lo:w.hi]...)
		q.wall += w.wall
		q.ops += w.ops
		q.rows += w.rows
		q.cost.cpu += w.cost.cpu
	}
	for _, w := range r.windows {
		all.ops += w.ops
		all.cost.allocs += w.cost.allocs
		all.cost.bytes += w.cost.bytes
	}
	return map[string]float64{
		"setup_s":         setup.Seconds(),
		"ops_per_s":       ratio(float64(q.ops), q.wall.Seconds()),
		"rows_per_s":      ratio(float64(q.rows), q.wall.Seconds()),
		"op_p50_ms":       quantile(lat, 0.50),
		"op_p95_ms":       quantile(lat, 0.95),
		"cpu_ms_per_op":   ratio(q.cost.cpu.Seconds()*1e3, float64(q.ops)),
		"allocs_per_op":   ratio(float64(all.cost.allocs), float64(all.ops)),
		"alloc_kb_per_op": ratio(float64(all.cost.bytes)/1024, float64(all.ops)),
		"peak_rss_mb":     peakRSSMB(),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
