package verify

import (
	"fmt"

	"repro/internal/dataflow"
)

// CrossCheckStatic is the static column of the cross-check: the dynamic
// verdict document (translation validation of the decision journal against
// the image) and a static om-lint/v1 dataflow report over the same image
// must agree. The report must actually describe an image, must have
// evaluated at least one check site (a clean report is a proof, not the
// absence of output), and when every dynamic verdict is sound it must
// carry no error finding — a rewrite the validator proved correct cannot
// coexist with a static proof that the image's address calculation is
// broken. Info-severity findings (missed optimizations) are allowed; they
// are reports about optimality, not soundness.
func (d *Doc) CrossCheckStatic(rep *dataflow.Report) error {
	if err := d.Check(); err != nil {
		return err
	}
	if rep == nil {
		return fmt.Errorf("verify: no static report to cross-check")
	}
	if rep.Schema != dataflow.Schema {
		return fmt.Errorf("verify: static report schema %q, want %q", rep.Schema, dataflow.Schema)
	}
	if rep.Source != "image" {
		return fmt.Errorf("verify: static report describes %q, want an image", rep.Source)
	}
	if rep.Checked == 0 {
		return fmt.Errorf("verify: static report evaluated no check sites")
	}
	if n := rep.Errors(); d.Failed == 0 && n > 0 {
		return fmt.Errorf("verify: all %d dynamic verdicts sound but static analysis reports %d error(s); first: %s",
			d.Checked, n, firstError(rep))
	}
	return nil
}

// firstError renders the report's first error-severity finding.
func firstError(rep *dataflow.Report) string {
	for _, f := range rep.Findings {
		if f.Severity == dataflow.SevError {
			return f.String()
		}
	}
	return ""
}
