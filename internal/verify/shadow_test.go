package verify

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/rtlib"
	"repro/internal/spec"
	"repro/internal/tcc"
)

// liObjects compiles the li benchmark module by module plus the runtime
// library.
func liObjects(t *testing.T) []*objfile.Object {
	t.Helper()
	b, ok := spec.ByName("li")
	if !ok {
		t.Fatal("no benchmark li")
	}
	var objs []*objfile.Object
	for _, m := range b.Modules {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	return append(objs, lib...)
}

// TestShadowGate pins the shared gate every surface applies: a clean link
// passes under every check set, the standard injected pass fault fails
// under each, and a verdict document the image report cannot be
// reconciled with fails the cross-check.
func TestShadowGate(t *testing.T) {
	objs := liObjects(t)
	sets := []struct {
		name   string
		checks Checks
		want   string
	}{
		{"verify", Checks{Verify: true}, "verification failed"},
		{"lint", Checks{Lint: true}, "lint failed"},
		{"both", Checks{Verify: true, Lint: true}, "verification failed"},
	}
	run := func(checks Checks) *CellResult {
		t.Helper()
		r, err := RunCell(context.Background(), objs, Cell{Level: om.LevelFull, Schedule: true}, nil, checks)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, set := range sets {
		r := run(set.checks)
		if err := r.Err(); err != nil {
			t.Errorf("clean li, %s: %v", set.name, err)
		}
		if (r.Doc != nil) != set.checks.Verify || (r.Static != nil) != set.checks.Lint {
			t.Errorf("clean li, %s: verdicts %v, image report %v", set.name, r.Doc != nil, r.Static != nil)
		}
		if set.checks.Lint && (r.Lifted == nil || r.Optimized == nil || len(r.Reports()) != 3) {
			t.Errorf("clean li, %s: %d lint reports, want lifted, optimized and image", set.name, len(r.Reports()))
		}
	}

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
	for _, set := range sets {
		err := run(set.checks).Err()
		if err == nil || !strings.Contains(err.Error(), set.want) {
			t.Errorf("broken pass, %s: gate says %v, want %q", set.name, err, set.want)
		}
	}
	restore()

	// Clean verdicts beside an image report that evaluated nothing: the
	// lint half alone sees no error finding, the cross-check refuses.
	o := &Outcome{
		Checks: Checks{Verify: true, Lint: true},
		Doc:    &Doc{Schema: Schema},
		Static: &dataflow.Report{Schema: dataflow.Schema, Source: "image"},
	}
	if err := o.Err(); err == nil || !strings.Contains(err.Error(), "cross-check failed") {
		t.Errorf("disagreement: gate says %v, want a cross-check failure", err)
	}
}
