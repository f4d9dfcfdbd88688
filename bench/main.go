// Command bench is the repository's benchmark. It runs four closed-loop
// workloads over the scheduler build path, the slot path and service mode,
// prints every end-to-end metric by name and unit (or, in a traced run,
// every per-layer metric), and checks each output against the capacity
// oracle, the fidelity floors and the recorded digests.
//
// From the root of a checkout:
//
//	bash bench/run.sh --workload warm-slots --seed 1 --seconds 15 --trace 0
//	go -C bench run . -out runs.jsonl        # all four, one process each
//	go -C bench run . -trace spans.json      # traced run, per-layer metrics
//	go -C bench run . -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; with all four workloads it
// aggregates theirs. README.md has the workload and metric tables and the
// comparison procedure.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// defaultSeed is the seed the recorded digests (digests.json) belong to.
const defaultSeed = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the command line and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (each in its own process)")
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 15, "length of the measured phase in seconds")
	trace := fs.String("trace", "0", "0 = untraced run (end-to-end metrics); 1 or a file = traced run (per-layer metrics), spans written to the file (default .bench_build/spans-<workload>.json)")
	out := fs.String("out", "", "append the run's result record to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments, against the bounds in BENCHMARK.json (found in . or ..): -compare A.jsonl B.jsonl")
	summarize := fs.Bool("summarize", false, "print the median and quartiles of every metric in the -out file given as argument")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *summarize:
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -summarize takes one result file")
			return 2
		}
		return runSummarize(fs.Arg(0), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	traced, spans, err := parseTrace(*trace)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *name == "all" {
		return runAll(args, *trace, spans, stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if traced && spans == "" {
		spans = filepath.Join(".bench_build", "spans-"+w.name+".json")
	}
	return runSingle(options{
		w:         w,
		seed:      *seed,
		seconds:   *seconds,
		traced:    traced,
		spansPath: spans,
		outPath:   *out,
		scale:     fullScale,
	}, stdout, stderr)
}

// parseTrace reads the -trace value: "0" or "" is an untraced run, "1" a
// traced run with the default spans file, anything else a traced run
// writing its spans to that file.
func parseTrace(v string) (traced bool, spans string, err error) {
	switch v {
	case "", "0":
		return false, "", nil
	case "1":
		return true, "", nil
	}
	if strings.HasPrefix(v, "-") {
		return false, "", fmt.Errorf("bench: -trace %q: want 0, 1 or a file name", v)
	}
	return true, v, nil
}

// runAll runs every workload in its own child process, one after the
// other, and fails if any of them fails. A spans file name gets the
// workload's name inserted before its extension. Each child's output
// passes through; the last line is the aggregate of the children's result
// lines: correct only if all are, attempted and failed summed, and each
// metric named <workload>/<metric>. A child that ends without a result
// line counts as one failed op.
func runAll(args []string, trace, spans string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: locating own executable: %v\n", err)
		return 1
	}
	code := 0
	all := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		childTrace := trace
		if spans != "" {
			ext := filepath.Ext(spans)
			childTrace = strings.TrimSuffix(spans, ext) + "-" + w.name + ext
		}
		childArgs := append(append([]string(nil), args...), "-workload", w.name, "-trace", childTrace)
		fmt.Fprintf(stdout, "# workload %s\n", w.name)
		var out bytes.Buffer
		cmd := exec.Command(exe, childArgs...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &out), stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			}
			code = 1
		}
		all.add(w.name, out.String())
	}
	printLine(stdout, all)
	if !all.Correct {
		code = 1
	}
	return code
}

// add folds the result line ending one workload's output into l.
func (l *resultLine) add(workload, output string) {
	lines := strings.Split(strings.TrimSpace(output), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || r.Attempted == 0 {
		r = resultLine{Attempted: 1, Failed: 1}
	}
	l.Correct = l.Correct && r.Correct
	l.Attempted += r.Attempted
	l.Failed += r.Failed
	for name, m := range r.Metrics {
		l.Metrics[workload+"/"+name] = m
	}
}

// runSingle runs one workload in this process, prints its metrics and its
// result line, and returns the exit code: non-zero when any check failed.
func runSingle(o options, stdout, stderr io.Writer) int {
	res, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.w.name, err)
		return 1
	}
	printResult(stdout, res)
	if o.outPath != "" {
		if err := appendRecord(o.outPath, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}
