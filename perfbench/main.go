// Command perfbench is the repository benchmark: it runs one named
// workload in-process against the cobrawalk layers (graph, graphstore,
// graphcache, process, sim, stats, sweep, server with obs, expt) and
// prints its metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload sweep-grid --seed 1 --seconds 20 --trace 0
//
// The metric names and units are the ones BENCHMARK.json declares. With
// --trace 0 it measures the end-to-end metrics: set-up is repeated
// setupReps times and reported as a median, then the workload's fixed
// unit of work is repeated enough times to fill --seconds. Each unit is
// timed in parts (a grid size, an experiment, a point, a batch of jobs)
// and wall_s is the sum of the per-part medians, so a burst of CPU steal
// that slows one part of one unit does not move it. With --trace 1 it
// makes the same untraced measurement, then runs traced work with spans
// recorded around the calls it makes into each layer, and prints the
// per-layer metrics, the residual between the traced wall time and the
// summed layer self times, and the tracing overhead. The last line of
// standard output is always one JSON object {"correct", "attempted",
// "failed", "metrics"}; the exit code is non-zero when any output check
// fails.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cobrawalk/internal/buildinfo"
)

// defaultSeed is the workload seed used when --seed is not given.
const defaultSeed = 20161

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 3

// workload is one named input set. setup runs setupReps times and must
// leave the workload ready for unit; unit performs the fixed work and
// returns the seconds each of its parts took, keyed by part name; traced
// performs the same work with spans recorded and fills the per-layer
// metrics.
type workload interface {
	setup(b *bench) error
	unit(b *bench) (ops float64, parts map[string]float64, err error)
	traced(b *bench, untracedWall float64) error // untracedWall is wall_s
	// opName names what unit counts, for the throughput line.
	opName() string
	// finish reports what the workload gathered across units and
	// releases what set-up started.
	finish(b *bench)
}

var workloads = map[string]func() workload{
	"sweep-grid":    func() workload { return &sweepGrid{} },
	"expander-128k": func() workload { return &expander{} },
	"daemon-mixed":  func() workload { return &daemonMixed{} },
	"paper-quick":   func() workload { return &paperQuick{} },
}

// bench is the run-wide context handed to a workload.
type bench struct {
	name    string
	seed    uint64
	seconds time.Duration
	dir     string // scratch directory inside the checkout
	ops     tally
	tr      *tracer // non-nil only while traced work runs
	metrics map[string]float64
	lines   []string
}

// set records a metric value; its unit is the one BENCHMARK.json declares.
func (b *bench) set(name string, v float64) {
	b.metrics[name] = v
}

// note adds a human-readable report line.
func (b *bench) note(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readDeclared returns the end-to-end and per-layer metrics BENCHMARK.json
// declares; the benchmark runs from the repository root, where it lies.
func readDeclared() (endToEnd, perLayer []declared, err error) {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return doc.EndToEnd, doc.PerLayer, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: sweep-grid, expander-128k, daemon-mixed or paper-quick")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the programs see only the specs generated from it")
	seconds := flag.Int("seconds", 20, "sizes the measured phase: the workload's unit repeats about this many seconds' worth")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	writeRef := flag.String("write-ref", "", "recompute the stored reference values from this run's seed into the given file and exit")
	flag.Parse()
	if *writeRef != "" {
		if err := writeRefs(*writeRef, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	endToEnd, perLayer, err := readDeclared()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// The run's files stay under .bench_build after exit: deleting
	// thousands of small files makes ext4 skip the freed inodes for
	// about 30 s, which slowed every file create of the next run.
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	b := &bench{name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir, metrics: map[string]float64{}}
	printMeta(b)
	w := mk()
	if err := measure(b, w, *trace == 1); err != nil {
		b.ops.record(1, false, err, "run")
	}
	w.finish(b)

	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	known := map[string]bool{}
	for _, m := range append(endToEnd, perLayer...) {
		known[m.Name] = true
	}
	for n := range b.metrics {
		if !known[n] {
			b.ops.record(1, false, nil, "metric "+n+" is not declared in BENCHMARK.json")
		}
	}
	for _, m := range want {
		out.Metrics[m.Name] = metric{Value: b.metrics[m.Name], Unit: m.Unit}
		if *trace == 1 {
			if v, ok := b.metrics[m.Name]; ok {
				b.note("%s: %.6g %s", m.Name, v, m.Unit)
			}
		}
	}
	for _, l := range b.lines {
		fmt.Println(l)
	}
	out.Attempted, out.Failed = b.ops.attempted, b.ops.failed
	if out.Attempted == 0 {
		out.Attempted, out.Failed = 1, 1
	}
	out.Correct = out.Failed == 0
	fmt.Printf("error_rate: %.4g (failed %d of %d attempted)\n", b.ops.errorRate(), out.Failed, out.Attempted)
	for _, p := range b.ops.problems {
		fmt.Println("FAILED:", p)
	}
	blob, _ := json.Marshal(out) // a struct of maps, strings and numbers always marshals
	fmt.Println(string(blob))
	if !out.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs set-up, then the untraced units, and with traced set the
// workload's traced work after them.
func measure(b *bench, w workload, traced bool) error {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Each repetition, and then the measurement, starts from a
		// collected heap, as the one set-up a user pays does; otherwise
		// the peak RSS depends on when the collector caught up with the
		// previous repetition's garbage.
		debug.FreeOSMemory()
	}
	b.set("setup_s", median(setups))
	b.note("setup_s: %.4f s (median of %d)", median(setups), len(setups))

	var units []map[string]float64
	var ops float64
	steal0, start := stealSeconds(), time.Now()
	for another(time.Since(start), len(units), b.seconds) {
		k, parts, err := w.unit(b)
		if err != nil {
			return err
		}
		units = append(units, parts)
		ops += k
	}
	elapsed := time.Since(start).Seconds()
	steal := stealSeconds() - steal0
	parts := partMedians(units)
	names := make([]string, 0, len(parts))
	var wall float64
	for name, m := range parts {
		names = append(names, name)
		wall += m
	}
	sort.Strings(names)
	b.set("wall_s", wall)
	b.set("peak_rss_mb", peakRSSMB())
	b.note("wall_s: %.4f s (sum of %d per-part medians over %d units)", wall, len(parts), len(units))
	for _, name := range names {
		b.note("  part %s: %.4f s", name, parts[name])
	}
	b.note("%s_per_s: %.4g %s/s", w.opName(), ops/elapsed, w.opName())
	b.note("peak_rss_mb: %.1f MB", peakRSSMB())
	// The hypervisor's steal is the main source of run-to-run spread on a
	// shared runner; it is printed so a slow run can be told from a slow
	// program.
	b.note("cpu steal while measuring: %.2f s of %.1f s × %d CPUs", steal, elapsed, runtime.NumCPU())
	if !traced {
		return nil
	}
	b.tr = &tracer{}
	if err := w.traced(b, wall); err != nil {
		return err
	}
	if err := b.tr.write(filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("trace-%s-%d.json", b.name, b.seed))); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// another reports whether a run that has done n units in elapsed time
// starts one more: the first always, then each that, at the mean unit
// time so far, is expected to end within the window. A run therefore
// measures about the window's length however fast the host runs it, and
// takes more units into its medians when the host is fast.
func another(elapsed time.Duration, n int, window time.Duration) bool {
	return n == 0 || elapsed+elapsed/time.Duration(n) <= window
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// stealSeconds is the machine's total CPU steal time so far, from the
// eighth field of /proc/stat's cpu line (0 where unavailable).
func stealSeconds() float64 {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// printMeta prints the run metadata every report carries.
func printMeta(b *bench) {
	fmt.Printf("workload: %s  seed: %d  seconds: %s\n", b.name, b.seed, b.seconds)
	fmt.Printf("nproc: %d  GOMAXPROCS: %d  go: %s  commit: %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	l2, llc := cacheSizes()
	fmt.Printf("cpu: %s  L2: %s  LLC: %s\n", cpuModel(), mib(l2), mib(llc))
	if csr := csrBytes(b.name); csr > 0 {
		fmt.Printf("largest CSR: %s = %.2f× L2, %.3f× LLC\n", mib(csr), ratio(csr, l2), ratio(csr, llc))
	} else {
		fmt.Println("largest CSR: not computed (the experiments build their graphs internally)")
	}
}

func mib(n int64) string {
	if n <= 0 {
		return "unknown"
	}
	return fmt.Sprintf("%.3g MiB", float64(n)/(1<<20))
}

func ratio(a, b int64) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes returns the per-core L2 and the last-level cache size in
// bytes from sysfs (0 when unavailable).
func cacheSizes() (l2, llc int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	maxLevel := 0
	for _, d := range dirs {
		read := func(f string) string {
			blob, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(blob))
		}
		if read("type") == "Instruction" {
			continue
		}
		var level int
		fmt.Sscan(read("level"), &level)
		size := parseSize(read("size"))
		if level == 2 {
			l2 = size
		}
		if level >= maxLevel {
			maxLevel, llc = level, size
		}
	}
	return l2, llc
}

// parseSize parses sysfs cache sizes such as "4096K" or "300M".
func parseSize(s string) int64 {
	var n int64
	var unit string
	fmt.Sscanf(s, "%d%s", &n, &unit)
	switch unit {
	case "K":
		n <<= 10
	case "M":
		n <<= 20
	case "G":
		n <<= 30
	}
	return n
}

// commit identifies the code under test: the VCS revision the Go
// toolchain stamped into the binary, marked dirty when the working tree
// had changes, or, in a checkout without .git, a digest of every Go
// source and go.mod file in it.
func commit() string {
	if info := buildinfo.Read(); info.Revision != "" {
		return info.String() // marks a build with uncommitted changes "(dirty)"
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build"):
			return filepath.SkipDir
		case d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod"):
			return nil
		}
		blob, err := os.ReadFile(path)
		fmt.Fprintf(h, "%s %d\n", path, len(blob))
		h.Write(blob)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("no VCS stamp; source sha256 %x", h.Sum(nil)[:8])
}
