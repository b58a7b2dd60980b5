// Command doccheck keeps the repository documentation honest.
//
// Two checks, both driven from the markdown files named on the command
// line:
//
//   - Link check (every file): each relative markdown link
//     [text](path) must point at a file or directory that exists,
//     resolved against the markdown file's own directory. External
//     (http/https/mailto) and intra-document (#fragment) links are
//     skipped.
//
//   - Command check (-exec files): each `go run ./cmd/...` line inside
//     a fenced sh code block is verified against the real tree.
//     `go run ./cmd/bench ...` lines are *executed* in smoke mode —
//     the documented flags plus `-scale`/`-queries` overrides small
//     enough for CI — so a documented experiment id or flag that rots
//     fails the build. Any other `go run ./cmd/X` line (servers,
//     generators with side effects) is checked by building its
//     package.
//
// Usage:
//
//	go run ./cmd/doccheck README.md ROADMAP.md -exec EXPERIMENTS.md
//
// Exits non-zero if any link is dangling or any documented command
// fails. CI's doc-health job runs this over every tracked markdown
// file on each PR.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	var execFiles multiFlag
	flag.Var(&execFiles, "exec", "markdown file whose sh commands are executed in smoke mode (repeatable)")
	scale := flag.Float64("smoke-scale", 0.05, "dataset -scale override for executed bench commands")
	queries := flag.Int("smoke-queries", 10, "-queries override for executed bench commands")
	flag.Parse()

	// The usage above puts -exec after the plain files, where the flag
	// package stops parsing: take file names up to the next flag, then
	// resume.
	var files []string
	for args := flag.Args(); len(args) > 0; args = flag.Args() {
		i := 0
		for i < len(args) && !strings.HasPrefix(args[i], "-") {
			i++
		}
		files = append(files, args[:i]...)
		if i == len(args) {
			break
		}
		flag.CommandLine.Parse(args[i:]) // ExitOnError: a bad flag exits here
	}
	files = append(files, execFiles...)
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: doccheck [-exec FILE.md]... FILE.md...")
		os.Exit(2)
	}

	failures := 0
	for _, f := range files {
		errs := checkLinks(f)
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", e)
		}
		failures += len(errs)
	}
	for _, f := range execFiles {
		failures += runCommands(f, *scale, *queries)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkLinks returns one error per relative markdown link in file whose
// target does not exist on disk.
func checkLinks(file string) []error {
	data, err := os.ReadFile(file)
	if err != nil {
		return []error{err}
	}
	dir := filepath.Dir(file)
	var errs []error
	for lineNo, line := range strings.Split(string(data), "\n") {
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			if _, statErr := os.Stat(filepath.Join(dir, target)); statErr != nil {
				errs = append(errs, fmt.Errorf("%s:%d: dangling link %q", file, lineNo+1, m[1]))
			}
		}
	}
	return errs
}

// extractCommands returns every `go run ./cmd/...` command line found
// inside fenced sh/bash code blocks, with backslash continuations
// joined and duplicates removed in document order.
func extractCommands(data string) []string {
	var cmds []string
	seen := map[string]bool{}
	inBlock := false
	var pending string
	for _, raw := range strings.Split(data, "\n") {
		line := strings.TrimSpace(raw)
		if strings.HasPrefix(line, "```") {
			lang := strings.TrimPrefix(line, "```")
			inBlock = !inBlock && (lang == "sh" || lang == "bash" || lang == "shell")
			pending = ""
			continue
		}
		if !inBlock {
			continue
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if cont := strings.HasSuffix(line, "\\"); cont {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		line = strings.Join(strings.Fields(pending+line), " ")
		pending = ""
		if strings.HasPrefix(line, "go run ./cmd/") && !seen[line] {
			seen[line] = true
			cmds = append(cmds, line)
		}
	}
	return cmds
}

// runCommands verifies every documented command in file and returns
// the number of failures.
func runCommands(file string, scale float64, queries int) int {
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 1
	}
	failures := 0
	built := map[string]bool{}
	for _, cmd := range extractCommands(string(data)) {
		args := strings.Fields(cmd)[2:] // strip "go run"
		pkg := args[0]
		switch {
		case pkg == "./cmd/bench":
			run := append(args, "-scale", fmt.Sprint(scale), "-queries", fmt.Sprint(queries))
			fmt.Printf("doccheck: exec %s (smoke: -scale %g -queries %d)\n", cmd, scale, queries)
			c := exec.Command("go", append([]string{"run"}, run...)...)
			c.Stdout = os.Stdout
			c.Stderr = os.Stderr
			if err := c.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "doccheck: %s: command %q failed: %v\n", file, cmd, err)
				failures++
			}
		default:
			failures += checkBuilds(file, pkg, built)
			fmt.Printf("doccheck: checked %s (package builds; not executed)\n", cmd)
		}
	}
	return failures
}

func checkBuilds(file, pkg string, built map[string]bool) int {
	if built[pkg] {
		return 0
	}
	built[pkg] = true
	if out, err := exec.Command("go", "build", pkg).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %s: documented package %s does not build: %v\n%s", file, pkg, err, out)
		return 1
	}
	return 0
}
