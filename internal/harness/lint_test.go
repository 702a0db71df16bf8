package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/om"
	"repro/internal/spec"
)

// TestRunnerWithLint: a linting runner statically analyzes every OM-linked
// cell's image, attaches the clean om-lint/v1 report to the measurement,
// and — with verification also on — cross-checks the static findings
// against the dynamic verdicts. Standard-link cells carry neither.
func TestRunnerWithLint(t *testing.T) {
	r, err := New(WithLint(true), WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := spec.ByName("compress")
	if !ok {
		t.Fatal("no benchmark compress")
	}
	res, err := r.RunBenchmark(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range res.M {
		if v.Link == LinkStandard {
			if m.Lint != nil {
				t.Errorf("%v: standard link carries a lint report", v)
			}
			continue
		}
		if m.Lint == nil {
			t.Errorf("%v: OM cell has no lint report", v)
			continue
		}
		if m.Lint.Source != "image" || m.Lint.Checked == 0 {
			t.Errorf("%v: lint report source=%q checked=%d", v, m.Lint.Source, m.Lint.Checked)
		}
		if n := m.Lint.Errors(); n != 0 {
			t.Errorf("%v: %d error findings on a clean image; first: %s", v, n, m.Lint.Findings[0])
		}
		if err := m.Verify.CrossCheckStatic(m.Lint); err != nil {
			t.Errorf("%v: engines disagree: %v", v, err)
		}
	}
}

// TestRunnerCatchesBrokenPass: with the standard pass fault injected, a
// runner that lints or verifies fails the benchmark on the shared shadow
// gate instead of measuring the broken images.
func TestRunnerCatchesBrokenPass(t *testing.T) {
	restore := om.SetFaultHookForTesting(func(pg *om.Prog) {
		for _, pr := range pg.Procs {
			for _, si := range pr.Insts {
				if si.Lit != nil && !si.Lit.Converted && !si.Lit.Nullified && !si.Deleted {
					si.Deleted = true
					return
				}
			}
		}
	})
	defer restore()
	b, ok := spec.ByName("compress")
	if !ok {
		t.Fatal("no benchmark compress")
	}
	for _, tc := range []struct {
		name string
		opt  RunnerOption
		want string
	}{
		{"lint", WithLint(true), "lint failed"},
		{"verify", WithVerify(true), "verification failed"},
	} {
		r, err := New(tc.opt, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.RunBenchmark(context.Background(), b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: broken pass gave %v, want %q", tc.name, err, tc.want)
		}
	}
}
