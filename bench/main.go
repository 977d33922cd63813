// Command bench is the repository's benchmark: four closed-loop workloads
// that take trace bytes to report YAML through the CLI path, through
// vanid and through the producer, each checked against an independent
// reference, with a traced run that attributes the time to the layers.
//
//	go run ./bench                       every workload, untraced then traced, one JSON record
//	go run ./bench -workload char-full   one workload in this process; the last line is its result
//	go run ./bench -repeat               the untraced set twice, compared against the bounds
//
// See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this workload in-process and end with its result line (default: all, one child process each)")
		seed     = flag.Int64("seed", 1, "the only input to generation: it becomes every Spec.Seed")
		seconds  = flag.Float64("seconds", 15, "length of a workload's timed phase")
		traced   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced pass and reports the per-layer metrics")
		traceOut = flag.String("trace-out", "", "directory for span files (default: a temp dir removed at exit)")
		repeat   = flag.Bool("repeat", false, "run the untraced set twice and compare every end-to-end metric against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *name != "" && !strings.Contains(os.Getenv("GODEBUG"), quietRuntime) {
		// Started by hand without the setting: run the workload in a child
		// that has it, so every entry point measures the same runtime.
		cmd := exec.CommandContext(ctx, os.Args[0], os.Args[1:]...)
		cmd.Env, cmd.Stdout, cmd.Stderr = measuredEnv(), os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			os.Exit(1)
		}
		return
	}

	fmt.Printf("# vani bench go=%s gomaxprocs=%d nproc=%d commit=%s seed=%d seconds=%g\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit(), *seed, *seconds)

	var err error
	switch {
	case *name != "":
		err = runChild(ctx, config{
			workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1, traceOut: *traceOut,
			setups: 3, warm: 1, minOps: 100, size: pinned, out: os.Stdout,
		})
	case *repeat:
		err = runRepeat(ctx, *seed, *seconds)
	default:
		err = runAll(ctx, *seed, *seconds, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("outputs failed their checks")

// quietRuntime is the GODEBUG setting every measured process runs under
// (bench/run.sh exports it too). By default the Go scavenger hands freed
// heap pages back with MADV_DONTNEED and the next op faults them in
// again; on a small VM whose hypervisor reclaims freed guest pages each
// of those faults is a trip to the host, which cost char-full a fifth of
// its throughput and doubled its run-to-run spread. MADV_FREE leaves the
// pages in place until the kernel wants them.
const quietRuntime = "madvdontneed=0"

// measuredEnv is this process's environment with quietRuntime in GODEBUG.
func measuredEnv() []string {
	v := quietRuntime
	if cur := os.Getenv("GODEBUG"); cur != "" {
		v = cur + "," + quietRuntime
	}
	return append(os.Environ(), "GODEBUG="+v)
}

// runChild runs one workload in this process and ends stdout with its
// result as one JSON line.
func runChild(ctx context.Context, cfg config) error {
	if cfg.trace {
		cfg.setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// spawn re-executes this binary for one workload, so heap growth, pool
// contents and VmHWM of one workload cannot leak into the next. The
// child's lines pass through; its last one is parsed.
func spawn(ctx context.Context, workload string, seed int64, seconds float64, trace int, traceOut string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = measuredEnv()
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", workload, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return res, nil
}

// record is the machine-readable summary of a full run.
type record struct {
	GoVersion  string            `json:"go_version"`
	Gomaxprocs int               `json:"gomaxprocs"`
	Nproc      int               `json:"nproc"`
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	EndToEnd   map[string]result `json:"end_to_end"`
	PerLayer   map[string]result `json:"per_layer"`
	// Claim is what the run asserts about performance. The benchmark only
	// measures, so it is always null.
	Claim *string `json:"claim"`
}

// runAll runs every workload untraced then traced and prints one record.
func runAll(ctx context.Context, seed int64, seconds float64, traceOut string) error {
	rec := record{
		GoVersion: runtime.Version(), Gomaxprocs: runtime.GOMAXPROCS(0), Nproc: runtime.NumCPU(),
		Commit: commit(), Seed: seed, Seconds: seconds,
		EndToEnd: map[string]result{}, PerLayer: map[string]result{},
	}
	ok := true
	for _, w := range workloadNames() {
		for trace, into := range []map[string]result{rec.EndToEnd, rec.PerLayer} {
			res, err := spawn(ctx, w, seed, seconds, trace, traceOut)
			if err != nil {
				return err
			}
			into[w] = res
			ok = ok && res.Correct
		}
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	if !ok {
		return errIncorrect
	}
	return nil
}

// runRepeat runs the untraced set twice and holds every (workload,
// end-to-end metric) pair's relative difference to the metric's bound:
// the noise floor a later comparison of two commits has to clear.
func runRepeat(ctx context.Context, seed int64, seconds float64) error {
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = map[string]result{}
		for _, w := range workloadNames() {
			res, err := spawn(ctx, w, seed, seconds, 0, "")
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %w", w, errIncorrect)
			}
			sets[i][w] = res
		}
	}
	breaches := 0
	for _, w := range workloadNames() {
		for _, m := range endToEnd {
			a, b := sets[0][w].Metrics[m.Name].Value, sets[1][w].Metrics[m.Name].Value
			diff := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			verdict := "ok"
			if diff > m.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("repeat %s %s %.6g %.6g %s diff=%.2f%% bound=%.2f%% %s\n",
				w, m.Name, a, b, m.Unit, diff*100, m.Bound*100, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metrics differ between two runs of the same code by more than their bound", breaches)
	}
	return nil
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
