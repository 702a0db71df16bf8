// Command om is the optimizing linker: it merges object modules, lifts the
// whole program to symbolic form, performs link-time address-calculation
// optimization at the selected level, and writes an executable image.
//
// Usage:
//
//	om [-o a.out] [-level none|simple|full] [-schedule] [-nostdlib]
//	   [-profile file] [-stats] [-trace file] [-verify] [-lint] [-metrics]
//	   [-warmcheck] [-v] file.o...
//
// -warmcheck links the program twice more through the per-procedure warm
// memo, with the base options only (no journal, no lint observer, which
// would bypass the memo), and fails unless the second of those links
// replayed at least one procedure's passes and produced an image
// byte-identical to the one written — a command-line probe of the
// incremental pipeline's core invariant.
//
// -lint shadows the link with the static whole-program dataflow analysis
// of the lifted program, the optimized program and the emitted image (no
// simulator, no decision journal — purely static). -verify
// translation-validates the produced image against the link's own decision
// journal. Both run through verify.Shadow, the shadow-check path every
// surface shares, and share its single gate: om refuses to write the image
// on any failed verdict, on any error finding in any of the three reports
// (whether the input already carried it or the passes introduced it), and,
// with both flags, on any disagreement between the verdicts and the image
// report. With -verify and -trace, the om-verify/v1 verdict document is
// written next to the journal as <trace>.verify.json.
//
// -profile enables profile-guided procedure layout from an om-profile/v1
// document (collected with axsim -profileout or om -instrument feedback);
// the profile must match the program being linked — stale procedure names
// fail the link.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/profile"
	"repro/internal/rtlib"
	"repro/internal/verify"
)

func main() {
	out := flag.String("o", "a.out", "output image file")
	level := flag.String("level", "full", "optimization level: none, simple, or full")
	sched := flag.Bool("schedule", false, "reschedule code after optimizing (full only)")
	nostdlib := flag.Bool("nostdlib", false, "do not link the runtime library")
	shared := flag.String("shared", "", "comma-separated module names to treat as a dynamically-linked shared library")
	profFile := flag.String("profile", "", "om-profile JSON document driving profile-guided procedure layout")
	stats := flag.Bool("stats", false, "print static optimization statistics")
	jobs := flag.Int("j", 0, "max concurrent analysis goroutines (0 = GOMAXPROCS)")
	trace := flag.String("trace", "", "write the decision journal (one event per address load/call/GP-reset) to this file")
	verifyFlag := flag.Bool("verify", false, "translation-validate the image against the decision journal before writing it")
	lint := flag.Bool("lint", false, "statically analyze the program before and after the passes and the image; fail on any error finding")
	metrics := flag.Bool("metrics", false, "print per-phase timings as JSON on stderr")
	warmcheck := flag.Bool("warmcheck", false, "relink through the warm per-procedure memo and verify the image is byte-identical")
	verbose := flag.Bool("v", false, "print progress")
	flag.Parse()

	// All progress goes through one Logger so -trace/-metrics output and
	// progress lines compose (and tests can swap the sink).
	var logger harness.Logger = harness.LoggerFunc(func(string, ...any) {})
	if *verbose {
		logger = harness.LoggerFunc(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		})
	}

	var lvl om.Level
	switch *level {
	case "none":
		lvl = om.LevelNone
	case "simple":
		lvl = om.LevelSimple
	case "full":
		lvl = om.LevelFull
	default:
		fmt.Fprintf(os.Stderr, "om: unknown level %q\n", *level)
		os.Exit(2)
	}

	var objs []*objfile.Object
	for _, name := range flag.Args() {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "om:", err)
			os.Exit(1)
		}
		obj, err := objfile.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "om: %s: %v\n", name, err)
			os.Exit(1)
		}
		objs = append(objs, obj)
	}
	if len(objs) == 0 {
		fmt.Fprintln(os.Stderr, "om: no input objects")
		os.Exit(2)
	}
	logger.Logf("om: read %d object modules", len(objs))
	if !*nostdlib {
		lib, err := rtlib.StandardObjects()
		if err != nil {
			fmt.Fprintln(os.Stderr, "om:", err)
			os.Exit(1)
		}
		objs = append(objs, lib...)
		logger.Logf("om: linked runtime library (%d modules total)", len(objs))
	}

	p, err := link.Merge(objs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "om:", err)
		os.Exit(1)
	}
	if *shared != "" {
		p.MarkShared(strings.Split(*shared, ",")...)
	}
	opts := []om.Option{
		om.WithLevel(lvl), om.WithSchedule(*sched), om.WithParallelism(*jobs),
	}
	if *profFile != "" {
		pf, err := os.Open(*profFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "om:", err)
			os.Exit(1)
		}
		prof, err := profile.Read(pf)
		pf.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "om: %s: %v\n", *profFile, err)
			os.Exit(1)
		}
		opts = append(opts, om.WithProfile(prof))
		logger.Logf("om: profile %s: %d procedures, %d call edges",
			*profFile, len(prof.Procs), len(prof.Edges))
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		opts = append(opts, om.WithMetrics(reg))
	}
	shadow := verify.NewShadow(verify.Checks{Verify: *verifyFlag, Lint: *lint}, nil)
	run := append(shadow.Options(), opts...)
	if *trace != "" {
		run = append(run, om.WithTrace())
	}
	res, err := om.Run(context.Background(), p, run...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "om:", err)
		os.Exit(1)
	}
	logger.Logf("om: optimized at %v: %v", lvl, res.Stats)
	im := res.Image
	checked := shadow.Check(res)
	if err := checked.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "om: %v; refusing to write %s\n", err, *out)
		os.Exit(1)
	}
	if *lint {
		logger.Logf("om: lint ok (%d lifted, %d optimized, %d image sites)",
			checked.Lifted.Checked, checked.Optimized.Checked, checked.Static.Checked)
	}
	if *verifyFlag {
		logger.Logf("om: verify ok (%d checks)", checked.Doc.Checked)
		if *trace != "" {
			vf, err := os.Create(*trace + ".verify.json")
			if err == nil {
				err = verify.Write(vf, checked.Doc)
				vf.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "om: verify:", err)
				os.Exit(1)
			}
			logger.Logf("om: wrote verdicts to %s.verify.json", *trace)
		}
	}
	if *warmcheck {
		// A link with the base options primes the memo; a second must
		// replay it to the image already produced — the invariant the
		// incremental warm path is built on.
		memo := om.NewMemo(reg)
		warm := append(opts, om.WithMemo(memo))
		var relinked *om.Result
		_, err := om.Run(context.Background(), p, warm...)
		if err == nil {
			relinked, err = om.Run(context.Background(), p, warm...)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "om: warmcheck relink:", err)
			os.Exit(1)
		}
		var cold, hot bytes.Buffer
		if err := im.Write(&cold); err == nil {
			err = relinked.Image.Write(&hot)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "om: warmcheck:", err)
			os.Exit(1)
		}
		if !bytes.Equal(cold.Bytes(), hot.Bytes()) {
			fmt.Fprintln(os.Stderr, "om: warmcheck: warm relink produced a different image")
			os.Exit(1)
		}
		hits := memo.PassStats().Hits
		if hits == 0 {
			fmt.Fprintln(os.Stderr, "om: warmcheck: the relink replayed no procedure from the pass memo")
			os.Exit(1)
		}
		logger.Logf("om: warmcheck ok (%d pass-memo hits, image byte-identical)", hits)
	}
	if *stats {
		fmt.Fprintln(os.Stderr, res.Stats)
	}
	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "om:", err)
			os.Exit(1)
		}
		if err := obs.WriteJournal(tf, res.Journal); err != nil {
			fmt.Fprintln(os.Stderr, "om:", err)
			os.Exit(1)
		}
		tf.Close()
		logger.Logf("om: wrote decision journal (%d events) to %s", len(res.Journal.Events), *trace)
	}
	if reg != nil {
		data, err := json.MarshalIndent(reg.Snapshot(), "", "\t")
		if err != nil {
			fmt.Fprintln(os.Stderr, "om:", err)
			os.Exit(1)
		}
		os.Stderr.Write(append(data, '\n'))
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "om:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := im.Write(f); err != nil {
		fmt.Fprintln(os.Stderr, "om:", err)
		os.Exit(1)
	}
	logger.Logf("om: wrote %s", *out)
}
