package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workers pins the experiment worker pool and, on the simulator
// workloads, GOMAXPROCS. It is a constant, not nproc, so every host runs
// the same load.
const workers = 2

// gomaxprocs is the GOMAXPROCS a workload runs under.
//
// The served workloads run on one P. Their goroutines hand each request
// over a loopback socket, so under two Ps each thread sleeps and wakes
// thousands of times a second, and the host treats two vCPUs that mostly
// sleep as one: it stacks both on one of its cores and unstacks them a
// second or two into any burst, which halves and restores each thread's
// speed (a pure ALU loop on both vCPUs reads 2.6e8 or 5.3e8 iterations/s
// per thread from one second to the next). Interleaved runs of identical
// code spread ops_per_s by 7.3% (pbsd_tcp_deep) and 6.9% (grid_gram_r4)
// under two Ps and by 2.3% and 0.8% under one, where the next goroutine
// is always found runnable by the same thread and nothing sleeps. The
// simulator workloads keep a thread busy throughout and read the same
// under either setting; registry_quick needs two for its pool.
func gomaxprocs(workload string) int {
	switch workload {
	case "grid_gram_r4", "pbsd_tcp_deep":
		return 1
	}
	return workers
}

// setupRuns is how often an untraced run sets the workload up; setup_s
// is the median, so one slow RSA key generation or cold page cache does
// not decide it.
const setupRuns = 3

// params is what a workload is built from.
type params struct {
	seed uint64
	// scale multiplies the workload's pinned amount of work; 1 is the
	// amount sized for BENCHMARK.json's run_seconds on the reference
	// machine.
	scale float64
	// dir is the workload's private scratch directory inside the
	// checkout (journals, service state).
	dir string
	// golden holds the workload's pinned exact counts, or nil when the
	// run is not the pinned one (other seed, other length, traced).
	golden golden
	// pins are golden.json's seed-independent per-layer counts.
	pins map[string]int64
}

// units scales a pinned amount of work, never below one unit.
func (p params) units(pinned int) int {
	n := int(float64(pinned)*p.scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// runResult is what one timed section did.
type runResult struct {
	attempted int // logical ops started
	failed    int // ops that errored, were shed, or answered wrongly
	// latMS is the wall time of every latency unit (replication, pass,
	// request, pair) in milliseconds.
	latMS []float64
	// chunks meter the section in consecutive pieces; see inChunks.
	chunks []chunk
}

// chunk is the meter reading of one consecutive piece of a timed
// section.
type chunk struct {
	ok        int // ops completed correctly
	wall, cpu time.Duration
	mallocs   uint64
}

// inChunks splits n units of work into consecutive ranges of size units,
// calls do on each, and adds what it did to rr with one chunk reading
// per range.
//
// ops_per_s, cpu_ms_per_op and allocs_per_op are the median chunk's, not
// the section's totals over its wall time. The shared machine moves
// between a fast and a slow state every few seconds, an fsync or a GC
// cycle stalls one piece, and one simulated replication in a hundred
// draws a monster job that queues a thousand behind it and costs ten
// times the allocations of the rest; the median piece reads the same
// through all three, where the total is whatever mix the run happened
// to get.
func (rr *runResult) inChunks(n, size int, do func(lo, hi int) (attempted, failed int, err error)) error {
	size = max(size, 1)
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		before := readUsage()
		attempted, failed, err := do(lo, hi)
		after := readUsage()
		rr.chunks = append(rr.chunks, chunk{
			ok:      attempted - failed,
			wall:    after.wall.Sub(before.wall),
			cpu:     after.cpu - before.cpu,
			mallocs: after.mallocs - before.mallocs,
		})
		rr.attempted += attempted
		rr.failed += failed
		if err != nil {
			return err
		}
	}
	return nil
}

// runner is one benchmark workload. setup may be called again after
// teardown; run may be called repeatedly between one setup and verify
// and must do the same work on the same inputs each time.
type runner interface {
	// setup derives the inputs from the seed, builds the system under
	// test and warms it: everything setup_s covers.
	setup() error
	// run is the timed section. tr is nil in the untraced run.
	run(tr *tracer) (runResult, error)
	// verify checks the outputs of the last run and returns one line
	// per failed check. It may tear parts of the system down to do so.
	verify() []string
	// layers returns the per-layer metrics the last run measured in
	// place (exact counts, span medians).
	layers(tr *tracer) map[string]float64
	// counts returns the exact counts golden.json pins for this
	// workload, from the last run.
	counts() map[string]int64
	teardown()
}

// newWorkload builds the named workload.
func newWorkload(name string, p params) (runner, error) {
	switch name {
	case "sim_easy_all":
		return newSimWorkload(p, simEasyAll), nil
	case "sim_cbf_phi":
		return newSimWorkload(p, simCBFPhi), nil
	case "registry_quick":
		return newRegistryWorkload(p)
	case "grid_gram_r4":
		return newGridWorkload(p), nil
	case "pbsd_tcp_deep":
		return newTCPWorkload(p), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// usage is a reading of the process-wide meters a chunk is bracketed
// by.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{wall: time.Now(), cpu: cpu, mallocs: ms.Mallocs}
}

// medianChunk is the median over the section's chunks of f.
func (rr runResult) medianChunk(f func(c chunk) float64) float64 {
	xs := make([]float64, len(rr.chunks))
	for i, c := range rr.chunks {
		xs[i] = f(c)
	}
	return median(xs)
}

// opsPerS is the median chunk's rate of correctly completed ops.
func (rr runResult) opsPerS() float64 {
	return rr.medianChunk(func(c chunk) float64 { return float64(c.ok) / c.wall.Seconds() })
}

// wall is the section's length: its chunks' wall times added up.
func (rr runResult) wall() (d time.Duration) {
	for _, c := range rr.chunks {
		d += c.wall
	}
	return d
}

// busyFrac is the share of procs cores the section kept busy.
func (rr runResult) busyFrac(procs int) float64 {
	var cpu time.Duration
	for _, c := range rr.chunks {
		cpu += c.cpu
	}
	return float64(cpu) / (float64(rr.wall()) * float64(procs))
}

func (rr runResult) ok() int { return rr.attempted - rr.failed }

// measure runs one timed section on a heap that setup's garbage has
// been cleared from.
func measure(w runner, tr *tracer) (runResult, error) {
	runtime.GC()
	debug.FreeOSMemory()
	rr, err := w.run(tr)
	if err != nil {
		return rr, err
	}
	if rr.attempted < 1 || rr.ok() < 1 {
		return rr, fmt.Errorf("timed section completed %d of %d ops", rr.ok(), rr.attempted)
	}
	return rr, nil
}

// tracedSections is how many timed sections a traced run splits its work
// over: untraced, traced, untraced, traced. Alternating keeps a drift of
// the machine (or a heap that is still growing) from reading as tracing
// overhead, which compares the two untraced with the two traced ones.
const tracedSections = 4

// measureTraced runs the alternating sections and returns the untraced
// and the traced ones, each pair added up.
func measureTraced(w runner, tr *tracer) (untraced, traced runResult, err error) {
	for i := 0; i < tracedSections/2; i++ {
		u, err := measure(w, nil)
		if err != nil {
			return untraced, traced, err
		}
		t, err := measure(w, tr)
		if err != nil {
			return untraced, traced, err
		}
		untraced.add(u)
		traced.add(t)
	}
	return untraced, traced, nil
}

// add accumulates another section of the same work.
func (rr *runResult) add(o runResult) {
	rr.attempted += o.attempted
	rr.failed += o.failed
	rr.latMS = append(rr.latMS, o.latMS...)
	rr.chunks = append(rr.chunks, o.chunks...)
}

// endToEnd turns a timed section into the end-to-end metrics.
func endToEnd(s runResult, setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":       setupS,
		"ops_per_s":     s.opsPerS(),
		"op_p50_ms":     median(s.latMS),
		"cpu_ms_per_op": s.medianChunk(func(c chunk) float64 { return float64(c.cpu) / 1e6 / float64(c.ok) }),
		"allocs_per_op": s.medianChunk(func(c chunk) float64 { return float64(c.mallocs) / float64(c.ok) }),
		"peak_rss_mb":   peakRSSMiB(),
	}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM),
// falling back to getrusage's ru_maxrss where /proc is missing.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// onTmpfs reports whether dir sits on a memory-backed filesystem. The
// journal and durable-state probes fsync there; on a real block device
// their readings carry that device's noise.
func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	return st.Type == tmpfsMagic
}
