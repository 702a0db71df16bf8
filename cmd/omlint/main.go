// Command omlint statically proves OM's address-calculation invariants: it
// runs the whole-program dataflow analysis (CFG construction, reaching
// definitions, liveness, and an abstract interpretation of register
// contents) over OM's symbolic program form and over final linked images,
// without executing anything.
//
// Usage:
//
//	omlint -image a.out [-json] [-missed]
//	omlint -matrix [-bench name,...] [-quick] [-json] [-missed]
//	omlint -faultcheck
//	omlint -checks [-json]
//	omlint [-level full] [-sched] [-nostdlib] [-json] [-missed] file.o...
//
// -image analyzes an already-linked executable. With object file
// arguments, the objects are linked, optimized at -level, and analyzed
// three times: the lifted symbolic program (pre-pass), the optimized
// symbolic program (post-pass), and the emitted image.
//
// -matrix compiles the named benchmarks (default: the full suite) and
// analyzes every golden matrix cell (its lifted and optimized program and
// its image; the image report is shown), failing on any error-severity
// finding — the static half of the verification story omverify witnesses
// dynamically.
//
// -faultcheck is the detection-power self-test: it installs the standard
// fault injection (a kept address load silently deleted after the passes)
// and fails unless the analysis reports the break.
//
// -missed includes info-severity findings (missed optimizations,
// unreachable code) in the text output; errors are always shown. The exit
// status reflects error findings only.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/rtlib"
	benchspec "repro/internal/spec"
	"repro/internal/tcc"
	"repro/internal/verify"
)

func main() {
	image := flag.String("image", "", "analyze this linked image")
	matrix := flag.Bool("matrix", false, "analyze the golden matrix over built-in benchmarks")
	bench := flag.String("bench", "", "comma-separated benchmark names for -matrix (default: all)")
	quick := flag.Bool("quick", false, "use the quick cell set instead of the full golden matrix")
	faultcheck := flag.Bool("faultcheck", false, "self-test: inject the standard pass fault and require a finding")
	checks := flag.Bool("checks", false, "print the check catalog")
	level := flag.String("level", "full", "optimization level for object file arguments (none, simple, full)")
	sched := flag.Bool("sched", false, "enable instruction scheduling for object file arguments")
	nostdlib := flag.Bool("nostdlib", false, "do not add the runtime library to object file arguments")
	missed := flag.Bool("missed", false, "include info-severity findings (missed optimizations) in text output")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of the text report")
	flag.Parse()

	ctx := context.Background()
	switch {
	case *checks:
		runChecks(*jsonOut)
	case *faultcheck:
		runFaultcheck(ctx)
	case *image != "":
		runImage(*image, *jsonOut, *missed)
	case *matrix:
		runBenchMatrix(ctx, *bench, *quick, *jsonOut, *missed)
	case flag.NArg() > 0:
		runObjects(ctx, flag.Args(), *level, *sched, *nostdlib, *jsonOut, *missed)
	default:
		fmt.Fprintln(os.Stderr, "usage: omlint -image a.out | -matrix | -faultcheck | -checks | file.o...")
		os.Exit(2)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "omlint: "+format+"\n", args...)
	os.Exit(1)
}

// runChecks prints the stable check catalog.
func runChecks(jsonOut bool) {
	cat := dataflow.Checks()
	if jsonOut {
		emitJSON(cat)
		return
	}
	for _, c := range cat {
		fmt.Printf("%s %-22s %-5s %s\n", c.ID, c.Name, c.Severity, c.Doc)
	}
}

// runImage analyzes one linked image.
func runImage(imgFile string, jsonOut, missed bool) {
	f, err := os.Open(imgFile)
	if err != nil {
		fail("%v", err)
	}
	im, err := objfile.ReadImage(f)
	f.Close()
	if err != nil {
		fail("%s: %v", imgFile, err)
	}
	rep, err := dataflow.AnalyzeImage(im)
	if err != nil {
		fail("%s: %v", imgFile, err)
	}
	report(imgFile, []*dataflow.Report{rep}, jsonOut, missed)
}

// runObjects links the objects, optimizes at the requested level, and
// analyzes the symbolic program at both observer stages plus the image.
func runObjects(ctx context.Context, files []string, level string, sched, nostdlib, jsonOut, missed bool) {
	lvl, err := om.ParseLevel(strings.TrimPrefix(level, "om-"))
	if err != nil {
		fail("%v", err)
	}
	var objs []*objfile.Object
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			fail("%v", err)
		}
		obj, err := objfile.Read(f)
		f.Close()
		if err != nil {
			fail("%s: %v", name, err)
		}
		objs = append(objs, obj)
	}
	if !nostdlib {
		lib, err := rtlib.StandardObjects()
		if err != nil {
			fail("%v", err)
		}
		objs = append(objs, lib...)
	}
	r, err := verify.RunCell(ctx, objs, verify.Cell{Level: lvl, Schedule: sched}, nil, verify.Checks{Lint: true})
	if err != nil {
		fail("%v", err)
	}
	report(strings.Join(files, ","), r.Reports(), jsonOut, missed)
	if err := r.Err(); err != nil {
		fail("%v", err)
	}
}

// matrixRow is one benchmark × cell of the -matrix report.
type matrixRow struct {
	Label   string `json:"label"`
	Cell    string `json:"cell"`
	Checked uint64 `json:"checked"`
	Errors  int    `json:"errors"`
	Info    int    `json:"info"`
	Err     string `json:"err,omitempty"`

	report *dataflow.Report
}

// runBenchMatrix analyzes the image of every matrix cell for each named
// benchmark.
func runBenchMatrix(ctx context.Context, names string, quick, jsonOut, missed bool) {
	var benches []benchspec.Benchmark
	if names == "" {
		benches = benchspec.All()
	} else {
		for _, n := range strings.Split(names, ",") {
			b, ok := benchspec.ByName(strings.TrimSpace(n))
			if !ok {
				fail("unknown benchmark %q", n)
			}
			benches = append(benches, b)
		}
	}
	cells := verify.MatrixCells()
	if quick {
		cells = verify.QuickCells()
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		fail("%v", err)
	}

	var rows []matrixRow
	failed := 0
	for _, b := range benches {
		var objs []*objfile.Object
		for _, m := range b.Modules {
			obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
			if err != nil {
				fail("%s: %v", b.Name, err)
			}
			objs = append(objs, obj)
		}
		objs = append(objs, lib...)
		for _, c := range cells {
			row := matrixRow{Label: b.Name, Cell: c.Name()}
			r, err := verify.RunCell(ctx, objs, c, nil, verify.Checks{Lint: true})
			if err == nil {
				if rep := r.Static; rep != nil {
					row.Checked = rep.Checked
					row.Errors = rep.Errors()
					row.Info = len(rep.Findings) - rep.Errors()
					row.report = rep
				}
				err = r.Err()
			}
			if err != nil {
				row.Err = err.Error()
				failed++
			}
			rows = append(rows, row)
		}
	}

	if jsonOut {
		emitJSON(struct {
			Schema string      `json:"schema"`
			Rows   []matrixRow `json:"rows"`
			Failed int         `json:"failed_cells"`
		}{dataflow.Schema, rows, failed})
	} else {
		for _, row := range rows {
			status := "ok"
			switch {
			case row.Err != "":
				status = "FAIL " + row.Err
			case row.Info > 0:
				status = fmt.Sprintf("ok (%d info)", row.Info)
			}
			fmt.Printf("%-12s %-36s %6d checks  %s\n", row.Label, row.Cell, row.Checked, status)
			if row.report == nil {
				continue
			}
			for _, f := range row.report.Findings {
				if f.Severity == dataflow.SevError || missed {
					fmt.Printf("  %s %s\n", f.Severity, f.String())
				}
			}
		}
		fmt.Printf("%d cells, %d failed\n", len(rows), failed)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// faultcheckProgram is the fixture the self-test optimizes and breaks. The
// address-taken comparator guarantees a GAT address load survives OM-full
// (a procedure literal cannot be converted to GP-relative arithmetic or to
// a bsr), giving the fault hook a victim.
const faultcheckProgram = `
long table[24];
long acc = 0;

long step(long a, long b) { return b - a; }

long main() {
	long i;
	for (i = 0; i < 24; i = i + 1) {
		table[i] = lhash(i) % 97;
		acc = acc + table[i];
	}
	qsort8(table, 0, 23, step);
	print(acc);
	return 0;
}
`

// runFaultcheck proves detection power: with the standard fault injection
// installed (a kept address load deleted after the passes), the optimized
// symbolic program must produce at least one error finding.
func runFaultcheck(ctx context.Context) {
	injected := false
	restore := om.SetFaultHookForTesting(func(pg *om.Prog) {
		for _, pr := range pg.Procs {
			for _, si := range pr.Insts {
				if si.Lit != nil && !si.Lit.Converted && !si.Lit.Nullified && !si.Deleted {
					si.Deleted = true
					injected = true
					return
				}
			}
		}
	})
	defer restore()

	obj, err := tcc.Compile("prog", []tcc.Source{{Name: "prog", Text: faultcheckProgram}}, tcc.DefaultOptions())
	if err != nil {
		fail("%v", err)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		fail("%v", err)
	}
	r, err := verify.RunCell(ctx, append([]*objfile.Object{obj}, lib...), verify.Cell{Level: om.LevelFull}, nil, verify.Checks{Lint: true})
	if err != nil {
		fail("%v", err)
	}
	if !injected {
		fail("faultcheck: no kept address load to break — fixture no longer exercises the hook")
	}
	post := r.Optimized
	if post.Errors() == 0 || r.Err() == nil {
		fail("faultcheck: the injected fault produced no error finding — detection power lost")
	}
	for _, f := range post.Findings {
		if f.Severity == dataflow.SevError {
			fmt.Printf("caught: %s\n", f.String())
		}
	}
	fmt.Printf("faultcheck ok: %d error finding(s) on the broken program\n", post.Errors())
}

// report renders one or more findings documents and exits nonzero on any
// error finding.
func report(label string, reps []*dataflow.Report, jsonOut, missed bool) {
	errs := 0
	for _, r := range reps {
		errs += r.Errors()
	}
	if jsonOut {
		if len(reps) == 1 {
			if err := reps[0].Write(os.Stdout); err != nil {
				fail("%v", err)
			}
		} else {
			emitJSON(struct {
				Schema  string             `json:"schema"`
				Reports []*dataflow.Report `json:"reports"`
			}{dataflow.Schema, reps})
		}
	} else {
		for _, r := range reps {
			what := r.Source
			if r.Stage != "" {
				what += ":" + r.Stage
			}
			info := len(r.Findings) - r.Errors()
			fmt.Printf("%-12s %-36s %6d checks  %d errors, %d info\n",
				label, what, r.Checked, r.Errors(), info)
			for _, f := range r.Findings {
				if f.Severity == dataflow.SevError || missed {
					fmt.Printf("  %s %s\n", f.Severity, f.String())
				}
			}
		}
	}
	if errs > 0 {
		os.Exit(1)
	}
}

// emitJSON prints v in the repository's JSON house style (tab-indented,
// trailing newline).
func emitJSON(v any) {
	data, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		fail("%v", err)
	}
	os.Stdout.Write(append(data, '\n'))
}
