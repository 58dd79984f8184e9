// Command e2ebench is tiermerge's end-to-end reconnect benchmark: mobile
// clients reconcile over loopback TCP with a wire server in front of a
// durable base tier, all in one process, in a closed loop. An untraced run
// reports what a user sees (reconnect and base-commit latency, throughput,
// saved fraction, set-up and recovery time, memory); a traced run of the
// same seed reports a per-layer time budget. See README.md.
//
//	e2ebench --workload sync-small --seed 1 --seconds 10 --trace 0
//	e2ebench --workload all --seed 1 --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check exits
// non-zero without printing it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	data     string
}

// runLimit bounds a whole run, so a hang fails instead of outliving the
// caller's patience.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's transactions are drawn from")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&o.data, "data", ".", "directory the run's data directories are created under")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if o.workload == "all" {
		if err := runAll(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	s, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %s, or all)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	res, err := measure(s, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", s.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// result is the last line of standard output. Failed is always 0: a
// failed operation ends the run without a result.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload and prints its stamp and a readable summary
// to stdout, returning the result line.
func measure(s spec, o options, stdout io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	// A run that outlives its limit is stuck where the context cannot
	// reach (tier calls take none): dump every goroutine and fail.
	watchdog := time.AfterFunc(runLimit+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded its time limit; goroutines:")
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	defer watchdog.Stop()
	root, err := os.MkdirTemp(o.data, "e2ebench-run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	root, err = filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	drivers := runtime.NumCPU()
	st, err := json.Marshal(newStamp(o, root, drivers))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "stamp %s\n", st)

	b := newBench(s, o)
	out, err := b.run(ctx, root, drivers)
	if err != nil {
		return nil, err
	}
	var gated, informational []metric
	if o.trace {
		gated = perLayer(out)
	} else {
		gated, informational = endToEnd(out)
	}
	res := &result{Correct: true, Attempted: out.attempted, Metrics: map[string]metricValue{}}
	for _, m := range gated {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	for _, m := range append(gated, informational...) {
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if ticks := out.after.ticks - out.before.ticks; ticks > 0 {
		fmt.Fprintf(stdout, "host steal: %.1f%% of CPU time during the measured phase\n",
			100*float64(out.after.steal-out.before.steal)/float64(ticks))
	}
	rec := len(out.reconnectLat)
	fmt.Fprintf(stdout, "samples: %d reconnects, %d base txns in %.2fs; highest percentile with %d samples beyond: reconnects p%g, base txns p%g\n",
		rec, len(out.baseLat), out.elapsed.Seconds(), minBeyond, tailPercentile(rec), tailPercentile(len(out.baseLat)))
	return res, nil
}

// runAll runs every workload untraced and then traced, each in its own
// process, printing each run's report and the tracing overhead: the
// untraced minus the traced reconnects per second.
func runAll(o options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, s := range workloads {
		fmt.Fprintf(stdout, "== %s: %s\n", s.name, s.why)
		var res [2]result
		for trace := 0; trace < 2; trace++ {
			var buf strings.Builder
			cmd := exec.Command(self,
				"--workload", s.name, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
				"--trace", fmt.Sprint(trace), "--data", o.data)
			cmd.Stdout, cmd.Stderr = &buf, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s --trace %d: %w", s.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res[trace]); err != nil {
				return fmt.Errorf("%s --trace %d: decode result: %w", s.name, trace, err)
			}
			fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
		}
		untraced := res[0].Metrics["reconnects_per_s"].Value
		traced := res[1].Metrics["trace.reconnects_per_s"].Value
		fmt.Fprintf(stdout, "tracing overhead: %.6g reconnects/s (%.1f%% of %.6g untraced)\n\n",
			untraced-traced, 100*(untraced-traced)/untraced, untraced)
	}
	return nil
}
