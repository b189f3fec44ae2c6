// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload — mine, close or reduce (see workloads.go and NOTES.md) —
// as a closed loop: a single client runs passes over the workload's design
// mix back to back for the requested number of seconds, checks every pass's
// outputs, and prints the metrics. With -trace 1 it alternates untraced and
// traced passes and prints the per-layer self-time table instead.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Run it through run.sh from the repository root, which builds it from the
// checkout's sources first.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		wlName   = flag.String("workload", "", "workload to run: mine | close | reduce")
		seed     = flag.Int64("seed", 1, "workload seed (mine ignores it; see NOTES.md)")
		seconds  = flag.Int("seconds", 25, "how long to run passes back to back")
		traced   = flag.Int("trace", 0, "1 = alternate untraced and traced passes and report per-layer metrics")
		writeRef = flag.Bool("write-reference", false, "mine every mine-workload design with one worker and print the reference digests")
	)
	flag.Parse()
	if *writeRef {
		if err := writeReference(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := workloads[*wlName]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload mine|close|reduce, -seconds >= 1 and -trace 0|1\n")
		os.Exit(2)
	}
	ok, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// setupRepeats is how many times a run sets the workload up; setup_s is the
// median. Elaboration alone takes milliseconds, so it repeats often; reduce
// set-up also mines eight designs (about ten seconds on two cores), so it
// repeats twice.
func setupRepeats(wl *workload) int {
	if wl.mines {
		return 2
	}
	return 20
}

// endToEnd lists the metrics a -trace 0 run prints, as "name unit".
var endToEnd = []string{"design_geomean_ms ms", "max_rss_mb MB", "output_count count", "setup_s s", "wall_s s"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run and prints its report. It returns whether
// every output check passed.
func run(wl *workload, seed int64, window time.Duration, traced bool) (bool, error) {
	ctx := context.Background()
	rs := &runState{seed: seed, workers: runtime.NumCPU()}
	tmp, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "run-")
	if err != nil {
		return false, fmt.Errorf("temp dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	rs.tmp = tmp

	var setups []float64
	for i := 0; i < setupRepeats(wl); i++ {
		t0 := time.Now()
		if err := rs.setup(ctx, wl); err != nil {
			return false, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var (
		untraced, tracedWalls []float64
		cpus                  []float64
		perDesign             = make([][]float64, len(wl.designs))
		agg                   = newTraceAgg()
		attempted, failed     int
		checks                []string
		last                  *passResult
	)
	start := time.Now()
	for pass := 0; ; pass++ {
		var mt *memTrace
		if traced && pass%2 == 1 {
			mt = newMemTrace()
		}
		cpu0 := cpuSeconds()
		pr, err := wl.pass(ctx, rs, mt.tracer())
		if err != nil {
			return false, fmt.Errorf("pass %d: %w", pass, err)
		}
		pr.cpu = cpuSeconds() - cpu0
		checks = append(checks, pr.problems...)
		attempted += pr.attempted
		failed += pr.failed
		if last != nil && (pr.output != last.output || pr.uncovered != last.uncovered || pr.monitors != last.monitors) {
			checks = append(checks, fmt.Sprintf("pass %d outputs differ from pass %d: not deterministic", pass, pass-1))
		}
		last = pr
		if mt != nil {
			tracedWalls = append(tracedWalls, pr.wall.Seconds())
			if err := agg.add(mt, pr, rs.workers); err != nil {
				checks = append(checks, "traced pass rejected: "+err.Error())
			}
		} else {
			untraced = append(untraced, pr.wall.Seconds())
			cpus = append(cpus, pr.cpu)
			for i, d := range pr.design {
				perDesign[i] = append(perDesign[i], d.Seconds()*1e3)
			}
		}
		done := time.Since(start) >= window
		if done && (!traced || len(tracedWalls) > 0) {
			break
		}
	}
	rss := maxRSSMB()
	if wl.postCheck != nil {
		checks = append(checks, wl.postCheck(ctx, rs)...)
	}

	fmt.Printf("perfbench %s: seed=%d workers=%d passes=%d untraced + %d traced, window %v\n",
		wl.name, seed, rs.workers, len(untraced), len(tracedWalls), window)
	stamp := map[string]any{
		"workload": wl.name, "seed": seed, "commit": commit(), "source_sha256": sourceDigest(),
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"setup_samples": len(setups), "pass_samples": len(untraced), "traced_samples": len(tracedWalls),
	}
	sb, _ := json.Marshal(stamp)
	fmt.Printf("stamp: %s\n", sb)

	fmt.Printf("untraced pass walls (s):")
	for _, w := range untraced {
		fmt.Printf(" %.3f", w)
	}
	fmt.Printf("\nuntraced pass CPU (s):")
	for _, c := range cpus {
		fmt.Printf(" %.3f", c)
	}
	fmt.Println()
	var geo []float64
	for i, name := range wl.designs {
		m := median(perDesign[i])
		geo = append(geo, m)
		fmt.Printf("  design %-9s median %9.2f ms over %d passes\n", name, m, len(perDesign[i]))
	}
	failFrac := 0.0
	if attempted > 0 {
		failFrac = float64(failed) / float64(attempted)
	}
	metrics := map[string]metric{}
	if traced {
		lm, ok := agg.report(wl, rs, median(untraced), median(tracedWalls))
		if !ok {
			checks = append(checks, "traced accounting check failed")
		}
		lm["fail_frac"] = metric{failFrac, "ratio"}
		lm["uncovered_points"] = metric{float64(last.uncovered), "count"}
		lm["reduced_monitors"] = metric{float64(last.monitors), "count"}
		metrics = lm
	} else {
		metrics["setup_s"] = metric{median(setups), "s"}
		metrics["wall_s"] = metric{median(untraced), "s"}
		metrics["design_geomean_ms"] = metric{geomean(geo), "ms"}
		metrics["max_rss_mb"] = metric{rss, "MB"}
		metrics["output_count"] = metric{float64(last.output), "count"}
		fmt.Printf("setup_s %.4f s (median of %d)\n", median(setups), len(setups))
		fmt.Printf("wall_s %.4f s (median of %d passes)\n", median(untraced), len(untraced))
		fmt.Printf("design_geomean_ms %.3f ms\n", geomean(geo))
		fmt.Printf("max_rss_mb %.1f MB\n", rss)
		fmt.Printf("fail_frac %.4f ratio (%d of %d)\n", failFrac, failed, attempted)
		if wl.name == "reduce" {
			fmt.Printf("reduced_monitors %d count\n", last.monitors)
		} else {
			fmt.Printf("uncovered_points %d count\n", last.uncovered)
		}
		fmt.Printf("output_count %d count (%s)\n", last.output, wl.output)
	}
	for _, c := range checks {
		fmt.Printf("CHECK FAILED: %s\n", c)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(checks) == 0, attempted, failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return len(checks) == 0, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// commit names the checked-out commit, or "unknown" when the working
// directory is not the top of a git work tree (git may not look above it).
func commit() string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files of the checkout, so a
// result is traceable to the code it measured even where there is no git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
