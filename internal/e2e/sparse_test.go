package e2e_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tcc"
)

var updateDense = flag.Bool("update", false, "rewrite testdata/dense_data.txt")

// suiteImages links every suite program as the Figure 6 variants do:
// under ld, OM-full and OM-full+sched.
func suiteImages(t *testing.T, visit func(name, variant string, im *objfile.Image)) {
	t.Helper()
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range spec.All() {
		var objs []*objfile.Object
		for _, m := range b.Modules {
			obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			objs = append(objs, obj)
		}
		objs = append(objs, lib...)
		for _, v := range []string{"ld", "om-full", "om-full-sched"} {
			p, err := link.Merge(objs)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			var im *objfile.Image
			if v == "ld" {
				im, err = p.Layout()
			} else {
				var res *om.Result
				res, err = om.Run(context.Background(), p, om.WithLevel(om.LevelFull),
					om.WithSchedule(v == "om-full-sched"))
				if res != nil {
					im = res.Image
				}
			}
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, v, err)
			}
			visit(b.Name, v, im)
		}
	}
}

// TestSparseImages pins the sparse data segments of every suite image: no
// segment stores a zero run a zero tail could carry, the data segments
// cover their region contiguously, and the memory the simulator loads for
// the region is byte for byte the dense layout recorded in
// testdata/dense_data.txt (taken when each region was one dense blob).
// Regenerate deliberately with: go test ./internal/e2e -run SparseImages -update
func TestSparseImages(t *testing.T) {
	var got bytes.Buffer
	got.WriteString("# program link data-start data-end sha256(dense data region)\n")
	suiteImages(t, func(name, variant string, im *objfile.Image) {
		var start, end uint64
		for i, seg := range im.Segments {
			if strings.HasPrefix(seg.Name, ".text") {
				continue
			}
			if seg.Name != ".data" {
				t.Errorf("%s %s: unexpected data segment %s", name, variant, seg.Name)
			}
			if end == 0 {
				start = seg.Addr
			} else if seg.Addr != end {
				t.Errorf("%s %s: segment %d at %#x leaves a hole after %#x", name, variant, i, seg.Addr, end)
			}
			end = seg.End()
			if n, at := longestZeroRun(seg.Data); n >= link.SparseHole {
				t.Errorf("%s %s: segment at %#x stores %d zero bytes from +%#x", name, variant, seg.Addr, n, at)
			}
		}
		m, err := sim.New(im, sim.Config{})
		if err != nil {
			t.Fatalf("%s %s: %v", name, variant, err)
		}
		mem, err := m.ReadBytes(start, int(end-start))
		if err != nil {
			t.Fatalf("%s %s: %v", name, variant, err)
		}
		sum := sha256.Sum256(mem[:end-start])
		fmt.Fprintf(&got, "%s %s %#x %#x %s\n", name, variant, start, end, hex.EncodeToString(sum[:]))
	})

	path := filepath.Join("testdata", "dense_data.txt")
	if *updateDense {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("loaded data region differs from the dense layout:\n got: %s\nwant: %s", g, w)
		}
	}
}

// longestZeroRun returns the length and offset of b's longest run of zeros.
func longestZeroRun(b []byte) (n, at int) {
	run := 0
	for i, c := range b {
		if c != 0 {
			run = 0
			continue
		}
		if run++; run > n {
			n, at = run, i+1-run
		}
	}
	return n, at
}
