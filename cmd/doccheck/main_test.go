package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCheckLinks(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "exists.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	md := filepath.Join(dir, "doc.md")
	content := strings.Join([]string{
		"[good](exists.md) and [dir](sub/) are fine",
		"[external](https://example.com/x) and [frag](#section) are skipped",
		"[anchored](exists.md#part) resolves without the fragment",
		"[bad](missing.md) dangles",
		"[also bad](sub/nope.txt)",
	}, "\n")
	if err := os.WriteFile(md, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	errs := checkLinks(md)
	if len(errs) != 2 {
		t.Fatalf("got %d errors, want 2: %v", len(errs), errs)
	}
	for i, want := range []string{"missing.md", "sub/nope.txt"} {
		if !strings.Contains(errs[i].Error(), want) {
			t.Errorf("error %d = %v, want mention of %q", i, errs[i], want)
		}
	}
}

func TestExtractCommands(t *testing.T) {
	doc := strings.Join([]string{
		"Some prose with `go run ./cmd/bench -exp quant` inline (ignored).",
		"```sh",
		"go run ./cmd/bench -list          # show all experiment ids",
		"go run ./cmd/bench -exp quant",
		"go run ./cmd/bench -exp quant",
		"curl -s localhost:8080/healthz",
		"go run ./cmd/bench -exp fig9 \\",
		"  -scale 2 \\",
		"  -queries 50",
		"```",
		"```go",
		"go run ./cmd/bench -exp never // not a sh block",
		"```",
	}, "\n")
	got := extractCommands(doc)
	want := []string{
		"go run ./cmd/bench -list",
		"go run ./cmd/bench -exp quant",
		"go run ./cmd/bench -exp fig9 -scale 2 -queries 50",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("extractCommands:\n got %q\nwant %q", got, want)
	}
}
