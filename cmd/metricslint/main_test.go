package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnreadSeriesFail: on a fixture tree registering two series, the
// one a _test.go file names has a reader and the other, declared only by
// its catalogue table row, fails the lint by name.
func TestUnreadSeriesFail(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/x/x.go", `package x

import "softmem/internal/metrics"

func register(r *metrics.Registry, v func() int64) {
	r.CounterFunc("softmem_fixture_read_total", "read by a test", v)
	r.CounterFunc("softmem_fixture_unread_total", "read by nothing", v)
}
`)
	write("internal/x/x_test.go", `package x

const series = "softmem_fixture_read_total"
`)
	write(docPath, "| `softmem_fixture_read_total` | counter | read by a test |\n"+
		"| `softmem_fixture_unread_total` | counter | read by nothing |\n")

	sites, _, _, _, named, err := collect(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 2 {
		t.Fatalf("collect found %d registered names, want 2: %v", len(sites), sites)
	}
	_, _, diagnosed, err := docNames(filepath.Join(root, docPath))
	if err != nil {
		t.Fatal(err)
	}
	problems := unread(sites, named, diagnosed)
	if len(problems) != 1 || !strings.Contains(problems[0], `"softmem_fixture_unread_total" has no reader`) {
		t.Fatalf("unread = %q, want one problem naming softmem_fixture_unread_total", problems)
	}
}
