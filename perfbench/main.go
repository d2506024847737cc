// Command perfbench is the repository benchmark: three seeded, closed-
// loop workloads (scan, serve, churn) that drive the system through its
// public API, check every answer against a plaintext oracle, and print
// end-to-end metrics (or, with --trace 1, a per-layer breakdown) as one
// JSON line. See README.md for what each workload and metric is for.
//
//	perfbench --workload scan --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// watchdog bounds a whole run, set-up included: a hung protocol round
// must end the process with an error instead of stalling the caller.
const watchdog = 170 * time.Second

// outDir receives the full result record and the spans, relative to
// the working directory (the repository root).
const outDir = ".bench_out"

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: scan, serve or churn")
		seed     = flag.Int64("seed", 1, "seed for the generated tables, queries and inserted rows")
		seconds  = flag.Float64("seconds", 45, "length of the measured load")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		commit   = flag.String("commit", "unknown", "commit the benchmarked tree was built from")
	)
	flag.Parse()
	p, ok := defaultParams[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want scan, serve or churn)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	rc := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		p:        p,
		commit:   *commit,
	}
	rec, tr, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := save(outDir, rec, tr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	metrics := rec.EndToEnd
	if rc.trace {
		metrics = rec.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run dispatches one workload.
func run(rc runConfig) (*record, *tracer, error) {
	if rc.p.Tenants > 0 {
		return runServe(rc)
	}
	if rc.p.Churn {
		return runChurn(rc)
	}
	return runScan(rc)
}

// save writes the full record, and the spans of a traced run, under dir.
func save(dir string, rec *record, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, b2i(rec.Trace)))
	if tr != nil {
		rec.SpansFile = base + ".spans.jsonl"
		if err := tr.write(rec.SpansFile); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", append(data, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// provenance says which build, machine and settings produced a record.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	KeyBits    int    `json:"key_bits"`
	Started    string `json:"started"`
}

func newProvenance(rc runConfig) provenance {
	return provenance{
		Commit:     rc.commit,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		KeyBits:    rc.p.KeyBits,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

var errWrong = errors.New("result does not match the plaintext oracle")
