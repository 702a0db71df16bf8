// Command benchjson converts `go test -bench` output on stdin into the
// repository's tracked benchmark records (BENCH_sim.json, BENCH_link.json):
//
//	{"date": "YYYY-MM-DD", "commit": "<short sha>",
//	 "benchmarks": [{"name", "ns_per_op", "instructions_per_sec"}, ...]}
//
// Benchmarks that report an `inst/s` metric (the simulator suite does) get
// instructions_per_sec filled in; runs under -benchmem also record
// bytes_per_op and allocs_per_op (the warm-link record tracks both). With
// -baseline, a previous record is embedded under "baseline" so a single
// file shows the perf trajectory. When -o overwrites a record measured in
// a different environment, a "note" says the two are not comparable.
//
// Usage: go test -run '^$' -bench Sim . ./internal/sim | benchjson -o BENCH_sim.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type record struct {
	Date        string      `json:"date"`
	Commit      string      `json:"commit"`
	Environment environment `json:"environment"`
	// Note warns when the record replaces one measured in a different
	// environment, whose numbers are then not comparable with these.
	Note       string          `json:"note,omitempty"`
	Benchmarks []benchmark     `json:"benchmarks"`
	Baseline   json.RawMessage `json:"baseline,omitempty"`
}

// environment records where the numbers were measured, so regressions can
// be told apart from host or toolchain changes.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Host       string `json:"host,omitempty"`
}

func hostEnvironment() environment {
	host, _ := os.Hostname()
	return environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Host:       host,
	}
}

type benchmark struct {
	Name       string  `json:"name"`
	NsPerOp    float64 `json:"ns_per_op"`
	InstPerSc  float64 `json:"instructions_per_sec,omitempty"`
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	AllocsPer  float64 `json:"allocs_per_op,omitempty"`
}

// gomaxprocsSuffix is the "-N" go test appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func parse(line string) (benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return benchmark{}, false
	}
	f := strings.Fields(line)
	if len(f) < 4 {
		return benchmark{}, false
	}
	b := benchmark{Name: gomaxprocsSuffix.ReplaceAllString(f[0], "")}
	// After the name and iteration count, the line is (value, unit) pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "inst/s":
			b.InstPerSc = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPer = v
		}
	}
	return b, b.NsPerOp > 0
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "previous record to embed under \"baseline\"")
	flag.Parse()

	rec := record{
		Date:        time.Now().UTC().Format("2006-01-02"),
		Commit:      commit(),
		Environment: hostEnvironment(),
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if b, ok := parse(sc.Text()); ok {
			rec.Benchmarks = append(rec.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rec.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		rec.Baseline = json.RawMessage(compact.Bytes())
	}
	if *out != "" {
		rec.Note = environmentNote(*out, rec)
	}
	data, err := json.MarshalIndent(rec, "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// environmentNote compares rec with the record it is about to overwrite.
// When the CPU count, GOMAXPROCS, Go version or host differ, the note says
// which earlier measurement the new numbers must not be compared with.
func environmentNote(path string, rec record) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	var prev record
	if json.Unmarshal(raw, &prev) != nil || prev.Environment == rec.Environment {
		return ""
	}
	p := prev.Environment
	return fmt.Sprintf("measured with num_cpu %d and GOMAXPROCS %d (%s, host %q); not comparable "+
		"with the previous record (%s, commit %s), measured with num_cpu %d and GOMAXPROCS %d (%s, host %q)",
		rec.Environment.NumCPU, rec.Environment.GOMAXPROCS, rec.Environment.GoVersion, rec.Environment.Host,
		prev.Date, prev.Commit, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Host)
}
