package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommitDirty: the stamp is HEAD's short hash while the tracked files
// match HEAD (untracked files do not count) and gains -dirty once one of
// them differs.
func TestCommitDirty(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git")
	}
	dir := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	file := filepath.Join(dir, "f")
	if err := os.WriteFile(file, []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("init", "-q")
	git("add", "f")
	git("commit", "-q", "-m", "init")
	if err := os.WriteFile(filepath.Join(dir, "untracked"), []byte("u\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	clean := commit(dir)
	if clean == "unknown" || strings.HasSuffix(clean, "-dirty") {
		t.Fatalf("clean tree stamped %q", clean)
	}
	if err := os.WriteFile(file, []byte("b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := commit(dir); got != clean+"-dirty" {
		t.Fatalf("modified tree stamped %q, want %q", got, clean+"-dirty")
	}
}
