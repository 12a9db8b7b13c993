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
//   - every softmem_* name the readers (cmd/smdctl, internal/experiments)
//     look up must be a series some registration produces — a registered
//     name, or a histogram's _sum or _count — so a renamed metric fails
//     here instead of rendering a silent zero in `smdctl top`.
//
// It scans non-test .go files. In one that imports
// softmem/internal/metrics, a string literal starting with "softmem_" in
// the first argument of any call is a registration (this also catches
// names routed through local registration helpers); under a reader
// directory every such literal, wherever it stands, is a read instead.
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
// none.
var readerDirs = []string{"cmd/smdctl", "internal/experiments"}

var (
	validName = regexp.MustCompile(`^softmem_[a-z0-9_]+$`)
	docName   = regexp.MustCompile(`softmem_[a-z0-9_]+`)
	docPhase  = regexp.MustCompile(`phase="([a-z0-9_]+)"`)
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	sites, phases, produced, reads, err := collect(root)
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

	documented, docPhases, err := docNames(filepath.Join(root, docPath))
	if err != nil {
		problems = append(problems, fmt.Sprintf("cannot read metric catalogue: %v", err))
	} else {
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

// collect maps each softmem_* metric name to the positions of its
// registration call sites, each phase label value to the positions of
// the composite literals constructing it, and each name a reader looks
// up to the positions of those literals; produced is the set of series
// names the registrations expose.
func collect(root string) (sites, phases map[string][]token.Position, produced map[string]bool, reads map[string][]token.Position, err error) {
	sites = make(map[string][]token.Position)
	phases = make(map[string][]token.Position)
	produced = make(map[string]bool)
	reads = make(map[string][]token.Position)
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		rel, _ := filepath.Rel(root, path)
		if slices.Contains(readerDirs, filepath.ToSlash(filepath.Dir(rel))) {
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok {
					if name, ok := metricLiteral(lit); ok {
						reads[name] = append(reads[name], fset.Position(lit.Pos()))
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
	return sites, phases, produced, reads, err
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
// mentioned by the catalogue.
func docNames(path string) (map[string]bool, map[string]bool, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]bool)
	for _, m := range docName.FindAllString(string(body), -1) {
		out[m] = true
	}
	phases := make(map[string]bool)
	for _, m := range docPhase.FindAllStringSubmatch(string(body), -1) {
		phases[m[1]] = true
	}
	return out, phases, nil
}
