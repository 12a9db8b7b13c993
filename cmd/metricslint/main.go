// Command metricslint statically checks the repo's metric registrations
// against each other and against the catalogue in docs/OBSERVABILITY.md:
//
//   - every softmem_* name passed to a registration call must match the
//     naming convention ^softmem_[a-z0-9_]+$;
//   - each name must be registered at exactly one call site (a family is
//     shared by labeling one registration, not by re-declaring the name);
//   - the code and the documentation catalogue must list the same set of
//     names, in both directions;
//   - every `phase` label value constructed in code (a composite literal
//     with Name: "phase") must be documented in the catalogue as
//     phase="<value>", and vice versa;
//   - every softmem_* name the reader code (cmd/smdctl,
//     internal/experiments, bench/) looks up must be a series some
//     registration produces — a registered name, or a histogram's _sum or
//     _count — so a renamed metric fails here instead of rendering a
//     silent zero in `smdctl top`;
//   - every registered name must have a reader: reader code looks it up,
//     a _test.go file names it, or the catalogue's prose names it (a
//     diagnosis). A catalogue table row (a line starting "| `softmem_")
//     declares a series and reads nothing; a series nothing reads is
//     deleted, not kept.
//
// It scans the .go files. In a non-test one that imports
// softmem/internal/metrics, a string literal starting with "softmem_" in
// the first argument of any call is a registration (this also catches
// names routed through local registration helpers); under a reader
// directory every such literal, wherever it stands, is a read instead. A
// _test.go file reads every softmem_* name its text holds.
// Exit status 1 on any finding, so it can gate `make check`.
//
// Usage: metricslint [repo root, default "."]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

const (
	metricsImport = "softmem/internal/metrics"
	docPath       = "docs/OBSERVABILITY.md"
)

// readerDirs hold the code that looks series up by name and registers
// none; bench/ counts with everything under it.
var readerDirs = []string{"cmd/smdctl", "internal/experiments", "bench"}

var (
	validName  = regexp.MustCompile(`^softmem_[a-z0-9_]+$`)
	docName    = regexp.MustCompile(`softmem_[a-z0-9_]+`)
	docPhase   = regexp.MustCompile(`phase="([a-z0-9_]+)"`)
	catalogRow = regexp.MustCompile("^\\| `softmem_")
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	sites, phases, produced, reads, named, err := collect(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricslint: %v\n", err)
		os.Exit(2)
	}

	var problems []string
	names := slices.Sorted(maps.Keys(sites))
	for _, name := range names {
		if !validName.MatchString(name) {
			problems = append(problems, fmt.Sprintf("%s: invalid metric name %q (want %s)",
				sites[name][0], name, validName))
		}
		if len(sites[name]) > 1 {
			locs := make([]string, len(sites[name]))
			for i, p := range sites[name] {
				locs[i] = p.String()
			}
			problems = append(problems, fmt.Sprintf("metric %q registered at %d call sites: %s",
				name, len(locs), strings.Join(locs, ", ")))
		}
	}

	for _, name := range slices.Sorted(maps.Keys(reads)) {
		if !produced[name] {
			problems = append(problems, fmt.Sprintf("%s: reads %q, a series no registration produces",
				reads[name][0], name))
		}
	}

	documented, docPhases, diagnosed, err := docNames(filepath.Join(root, docPath))
	if err != nil {
		problems = append(problems, fmt.Sprintf("cannot read metric catalogue: %v", err))
	} else {
		problems = append(problems, unread(sites, named, diagnosed)...)
		for _, name := range names {
			if !documented[name] {
				problems = append(problems, fmt.Sprintf("%s: metric %q is not documented in %s",
					sites[name][0], name, docPath))
			}
		}
		for _, name := range slices.Sorted(maps.Keys(documented)) {
			if _, ok := sites[name]; !ok {
				problems = append(problems, fmt.Sprintf("%s documents %q, which no code registers",
					docPath, name))
			}
		}

		for _, v := range slices.Sorted(maps.Keys(phases)) {
			if !docPhases[v] {
				problems = append(problems, fmt.Sprintf("%s: phase label value %q is not documented in %s (want a phase=%q row)",
					phases[v][0], v, docPath, v))
			}
		}
		for _, v := range slices.Sorted(maps.Keys(docPhases)) {
			if _, ok := phases[v]; !ok {
				problems = append(problems, fmt.Sprintf("%s documents phase=%q, which no code constructs",
					docPath, v))
			}
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "metricslint: "+p)
		}
		os.Exit(1)
	}
	fmt.Printf("metricslint: %d metric names consistent with %s\n", len(names), docPath)
}

// unread reports each registered name that no reader names: not
// named (by reader code or a _test.go file) and not diagnosed (named by
// the catalogue's prose). Reading a histogram's _sum, _count or _bucket
// series reads the histogram.
func unread(sites map[string][]token.Position, named, diagnosed map[string]bool) []string {
	var problems []string
	for _, name := range slices.Sorted(maps.Keys(sites)) {
		read := false
		for _, suffix := range []string{"", "_sum", "_count", "_bucket"} {
			read = read || named[name+suffix] || diagnosed[name+suffix]
		}
		if !read {
			problems = append(problems, fmt.Sprintf("%s: metric %q has no reader (no lookup in %s, no _test.go names it, no diagnosis in %s names it)",
				sites[name][0], name, strings.Join(readerDirs, ", "), docPath))
		}
	}
	return problems
}

// collect maps each softmem_* metric name to the positions of its
// registration call sites, each phase label value to the positions of
// the composite literals constructing it, and each name reader code
// looks up to the positions of those literals; produced is the set of
// series names the registrations expose, and named the set of names
// reader code or a _test.go file reads.
func collect(root string) (sites, phases map[string][]token.Position, produced map[string]bool, reads map[string][]token.Position, named map[string]bool, err error) {
	sites = make(map[string][]token.Position)
	phases = make(map[string][]token.Position)
	produced = make(map[string]bool)
	reads = make(map[string][]token.Position)
	named = make(map[string]bool)
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			body, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, name := range docName.FindAllString(string(body), -1) {
				named[name] = true
			}
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		rel, _ := filepath.Rel(root, path)
		if isReader(filepath.ToSlash(filepath.Dir(rel))) {
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok {
					if name, ok := metricLiteral(lit); ok {
						reads[name] = append(reads[name], fset.Position(lit.Pos()))
						named[name] = true
					}
				}
				return true
			})
			return nil
		}
		if !importsMetrics(file) {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				if len(node.Args) == 0 {
					return true
				}
				name, ok := metricLiteral(node.Args[0])
				if !ok {
					return true
				}
				sites[name] = append(sites[name], fset.Position(node.Args[0].Pos()))
				produced[name] = true
				if sel, ok := node.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Histogram" {
					produced[name+"_sum"], produced[name+"_count"] = true, true
				}
			case *ast.CompositeLit:
				if v, pos, ok := phaseLabelValue(node, fset); ok {
					phases[v] = append(phases[v], pos)
				}
			}
			return true
		})
		return nil
	})
	return sites, phases, produced, reads, named, err
}

// isReader reports whether code in dir (slash-separated, relative to the
// repo root) is reader code.
func isReader(dir string) bool {
	return slices.Contains(readerDirs, dir) || strings.HasPrefix(dir, "bench/")
}

// metricLiteral reports whether e is a string literal naming a softmem_*
// series, and the name.
func metricLiteral(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	return name, err == nil && strings.HasPrefix(name, "softmem_")
}

// phaseLabelValue recognizes a metrics.Label-shaped composite literal
// `{Name: "phase", Value: "<literal>"}` and returns the value. Labels
// built any other way (computed values) are invisible to this check by
// design: phase taxonomies are meant to be closed, literal sets.
func phaseLabelValue(lit *ast.CompositeLit, fset *token.FileSet) (string, token.Position, bool) {
	isPhase, value, pos := false, "", token.Position{}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		s, ok := kv.Value.(*ast.BasicLit)
		if !ok || s.Kind != token.STRING {
			continue
		}
		unq, err := strconv.Unquote(s.Value)
		if err != nil {
			continue
		}
		switch key.Name {
		case "Name":
			isPhase = unq == "phase"
		case "Value":
			value, pos = unq, fset.Position(s.Pos())
		}
	}
	return value, pos, isPhase && value != ""
}

func importsMetrics(file *ast.File) bool {
	for _, imp := range file.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == metricsImport {
			return true
		}
	}
	return false
}

// docNames extracts the softmem_* names and phase="..." label values
// mentioned by the catalogue, and the names its prose (every line but a
// catalogue table row) mentions.
func docNames(path string) (names, phases, prose map[string]bool, err error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	names, phases, prose = make(map[string]bool), make(map[string]bool), make(map[string]bool)
	for _, line := range strings.Split(string(body), "\n") {
		for _, m := range docName.FindAllString(line, -1) {
			names[m] = true
			if !catalogRow.MatchString(line) {
				prose[m] = true
			}
		}
	}
	for _, m := range docPhase.FindAllStringSubmatch(string(body), -1) {
		phases[m[1]] = true
	}
	return names, phases, prose, nil
}
