package verify

import (
	"fmt"
	"strconv"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/om"
)

// Checks selects the shadow checks run over one OM link.
type Checks struct {
	// Verify translation-validates the image against the link's decision
	// journal.
	Verify bool
	// Lint runs the static dataflow analysis over the lifted and the
	// optimized symbolic program and over the emitted image.
	Lint bool
}

// Shadow is the one path a shadow check takes through an OM link, shared
// by om -verify/-lint, the harness, omd, omverify and omlint: Options
// supplies what the checks need from om.Run, and Check runs them over the
// result. A Shadow serves a single om.Run.
type Shadow struct {
	span *obs.Span
	out  Outcome
}

// NewShadow prepares the checks for one link. A non-nil span receives a
// lint-lifted and a lint-optimized child from the observer and a verify
// and a lint child from Check, each annotated with its totals.
func NewShadow(c Checks, sp *obs.Span) *Shadow {
	return &Shadow{span: sp, out: Outcome{Checks: c}}
}

// Options returns the om.Run options the checks need: the decision journal
// when verifying, the program observer when linting.
func (s *Shadow) Options() []om.Option {
	var opts []om.Option
	if s.out.Checks.Verify {
		opts = append(opts, om.WithTrace())
	}
	if s.out.Checks.Lint {
		opts = append(opts, om.WithProgObserver(s.observe))
	}
	return opts
}

// observe analyzes the symbolic program at one observer stage. It runs
// synchronously inside om.Run; an analysis that cannot run fails the link.
func (s *Shadow) observe(stage om.ProgStage, pg *om.Prog, pl *om.Plan) error {
	as := s.span.Child("lint-" + string(stage))
	defer as.End()
	rep, err := dataflow.AnalyzeProg(pg, pl, string(stage))
	if err != nil {
		return fmt.Errorf("lint %s: %w", stage, err)
	}
	as.SetAttr("checked", strconv.FormatUint(rep.Checked, 10))
	as.SetAttr("errors", strconv.Itoa(rep.Errors()))
	switch stage {
	case om.StageLifted:
		s.out.Lifted = rep
	case om.StageOptimized:
		s.out.Optimized = rep
	}
	return nil
}

// Check runs the post-link checks over the result of the om.Run that took
// Options and returns the outcome. A check that cannot run at all is
// recorded in the outcome and fails it.
func (s *Shadow) Check(res *om.Result) *Outcome {
	o := &s.out
	if o.Checks.Verify {
		vs := s.span.Child("verify")
		doc, err := ValidateImage(res.Image, res.Journal)
		if err != nil {
			o.err = fmt.Errorf("verification failed: %w", err)
		} else {
			o.Doc = doc
			vs.SetAttr("checked", strconv.FormatUint(doc.Checked, 10))
			vs.SetAttr("failed", strconv.FormatUint(doc.Failed, 10))
		}
		vs.SetAttr("outcome", outcome(err == nil && o.Doc.Failed == 0))
		vs.End()
	}
	if o.Checks.Lint {
		ls := s.span.Child("lint")
		rep, err := dataflow.AnalyzeImage(res.Image)
		if err != nil {
			if o.err == nil {
				o.err = fmt.Errorf("lint failed: %w", err)
			}
		} else {
			o.Static = rep
		}
		var checked uint64
		errs := 0
		for _, r := range o.Reports() {
			checked += r.Checked
			errs += r.Errors()
		}
		ls.SetAttr("checked", strconv.FormatUint(checked, 10))
		ls.SetAttr("errors", strconv.Itoa(errs))
		ls.SetAttr("outcome", outcome(err == nil && errs == 0))
		ls.End()
	}
	return o
}

func outcome(ok bool) string {
	if ok {
		return "ok"
	}
	return "failed"
}

// Outcome is what the shadow checks of one link found.
type Outcome struct {
	Checks Checks
	// Doc is the om-verify/v1 verdict document (verifying only).
	Doc *Doc
	// Lifted, Optimized and Static are the om-lint/v1 reports over the
	// lifted program, the optimized program and the emitted image
	// (linting only). Static is the report Doc is cross-checked against.
	Lifted, Optimized, Static *dataflow.Report

	err error
}

// Reports returns the lint reports present, in pipeline order: lifted,
// optimized, image.
func (o *Outcome) Reports() []*dataflow.Report {
	var reps []*dataflow.Report
	for _, r := range []*dataflow.Report{o.Lifted, o.Optimized, o.Static} {
		if r != nil {
			reps = append(reps, r)
		}
	}
	return reps
}

// Err is the single gate every surface applies to a shadow-checked link.
// It fails when a check could not run, on any failed verdict, on any
// error-severity finding in any of the three reports (whether the input
// program already carried it or the passes introduced it), and, when both
// checks ran, on any disagreement between the verdicts and the image
// report (Doc.CrossCheckStatic).
func (o *Outcome) Err() error {
	if o.err != nil {
		return o.err
	}
	if o.Doc != nil {
		if err := o.Doc.Err(); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
	}
	for _, r := range o.Reports() {
		if n := r.Errors(); n > 0 {
			what := r.Source
			if r.Stage != "" {
				what += ":" + r.Stage
			}
			return fmt.Errorf("lint failed: %s: %d error finding(s); first: %s", what, n, firstError(r))
		}
	}
	if o.Doc != nil && o.Static != nil {
		if err := o.Doc.CrossCheckStatic(o.Static); err != nil {
			return fmt.Errorf("cross-check failed: %w", err)
		}
	}
	return nil
}
