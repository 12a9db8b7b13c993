package softmem

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyFields are the exported fields of the module's *Config structs
// that no program sets, kept because tests need to set them. A field
// here that a program starts to set, or that is deleted, fails the test:
// take its line out.
var testOnlyFields = map[string]string{
	"core.Config.Daemon":                     "test seam: nil runs the SMA standalone, tests attach a fake daemon",
	"experiments.ChaosConfig.Logf":           "test seam: tests route the log to t.Logf",
	"experiments.ChaosConfig.Seed":           "test seam: tests pick the seed",
	"experiments.ChaosConfig.MachineMiB":     "a tier-1 test shrinks it to stay fast",
	"experiments.ChaosConfig.SMDBin":         "required input",
	"experiments.ChaosConfig.SoftKVBin":      "required input",
	"experiments.ChaosConfig.WorkDir":        "required input",
	"experiments.Fig2Config.CleanupPerEntry": "a tier-1 test shrinks it to stay fast",
	"experiments.Fig2Config.MachineMiB":      "a tier-1 test shrinks it to stay fast",
	"experiments.Fig2Config.OtherMiB":        "a tier-1 test shrinks it to stay fast",
	"experiments.Fig2Config.StoreMiB":        "a tier-1 test shrinks it to stay fast",
	"experiments.LatencyConfig.CleanupWorks": "a tier-1 test shrinks it to stay fast",
	"experiments.LatencyConfig.Demands":      "a tier-1 test shrinks it to stay fast",
	"experiments.LatencyConfig.Trials":       "a tier-1 test shrinks it to stay fast",
	"experiments.MLConfig.SampleBytes":       "a tier-1 test shrinks it to stay fast",
	"experiments.MLConfig.Samples":           "a tier-1 test shrinks it to stay fast",
	"experiments.MLConfig.SqueezeEpoch":      "a tier-1 test shrinks it to stay fast",
	"experiments.RestartConfig.ReclaimMiB":   "a tier-1 test shrinks it to stay fast",
	"experiments.SwapConfig.Accesses":        "a tier-1 test shrinks it to stay fast",
	"sds.ArrayConfig.ElemSize":               "required input",
	"sds.ArrayConfig.Length":                 "required input",
}

// TestConfigFieldsHaveCallers fails for an exported field of one of the
// module's *Config structs that no non-test file of the repository (the
// bench module included) sets, by keyed literal, by assignment or by
// taking its address, outside a setDefaults method or a default branch
// (see defaultBranch). A knob that only its default ever reaches is a
// constant: make it one, or list it in testOnlyFields with the reason
// tests need it.
//
// It reads syntax only. A literal counts for the struct its type names;
// an assignment x.F = v counts for every *Config struct with a field F,
// so a name shared between structs can make an unset field look set,
// never the reverse.
func TestConfigFieldsHaveCallers(t *testing.T) {
	type file struct {
		pkg string // import path
		f   *ast.File
	}
	var srcs []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// The bench module is softmem/bench, in bench/: every directory's
		// import path is the module root's plus its path.
		srcs = append(srcs, file{path.Join("softmem", filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The module's *Config structs, their exported fields, and the
	// aliases that re-export them.
	type typeKey struct{ pkg, name string }
	fields := map[typeKey][]string{}
	aliases := map[typeKey]ast.Expr{}
	aliasImports := map[typeKey]map[string]string{}
	for _, s := range srcs {
		if strings.HasPrefix(s.pkg, "softmem/bench") {
			continue
		}
		ast.Inspect(s.f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			k := typeKey{s.pkg, ts.Name.Name}
			if ts.Assign.IsValid() {
				aliases[k] = ts.Type
				aliasImports[k] = importNames(s.f)
				return false
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !strings.HasSuffix(ts.Name.Name, "Config") {
				return false
			}
			var names []string
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					if id.IsExported() {
						names = append(names, id.Name)
					}
				}
			}
			fields[k] = names
			return false
		})
	}

	var resolve func(pkg string, imports map[string]string, e ast.Expr) (typeKey, bool)
	resolve = func(pkg string, imports map[string]string, e ast.Expr) (typeKey, bool) {
		var k typeKey
		switch e := e.(type) {
		case *ast.Ident:
			k = typeKey{pkg, e.Name}
		case *ast.SelectorExpr:
			x, ok := e.X.(*ast.Ident)
			if !ok || imports[x.Name] == "" {
				return typeKey{}, false
			}
			k = typeKey{imports[x.Name], e.Sel.Name}
		case *ast.IndexExpr:
			return resolve(pkg, imports, e.X)
		case *ast.IndexListExpr:
			return resolve(pkg, imports, e.X)
		case *ast.StarExpr:
			return resolve(pkg, imports, e.X)
		case *ast.ParenExpr:
			return resolve(pkg, imports, e.X)
		default:
			return typeKey{}, false
		}
		if target, ok := aliases[k]; ok {
			return resolve(k.pkg, aliasImports[k], target)
		}
		_, ok := fields[k]
		return k, ok
	}

	set := map[typeKey]map[string]bool{}
	mark := func(k typeKey, field string) {
		if set[k] == nil {
			set[k] = map[string]bool{}
		}
		set[k][field] = true
	}
	markAll := func(field string) {
		for k, names := range fields {
			for _, n := range names {
				if n == field {
					mark(k, field)
				}
			}
		}
	}
	for _, s := range srcs {
		imports := importNames(s.f)
		// markLit records the keys of a literal of a *Config type, and
		// follows the elided element literals of a slice or map of one.
		var markLit func(cl *ast.CompositeLit, typ ast.Expr)
		markLit = func(cl *ast.CompositeLit, typ ast.Expr) {
			if k, ok := resolve(s.pkg, imports, typ); ok {
				for _, el := range cl.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							mark(k, id.Name)
						}
					}
				}
				return
			}
			var elem ast.Expr
			switch t := typ.(type) {
			case *ast.ArrayType:
				elem = t.Elt
			case *ast.MapType:
				elem = t.Value
			default:
				return
			}
			for _, el := range cl.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if u, ok := el.(*ast.UnaryExpr); ok && u.Op == token.AND {
					el = u.X
				}
				if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil {
					markLit(inner, elem)
				}
			}
		}
		for _, d := range s.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "setDefaults" {
				continue
			}
			var stack []ast.Node
			ast.Inspect(d, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.CompositeLit:
					if n.Type != nil {
						markLit(n, n.Type)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && !defaultBranch(stack, sel.Sel.Name) {
							markAll(sel.Sel.Name)
						}
					}
				case *ast.UnaryExpr:
					if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
						markAll(sel.Sel.Name)
					}
				}
				return true
			})
		}
	}

	var unset []string
	for k, names := range fields {
		for _, f := range names {
			name := path.Base(k.pkg) + "." + k.name + "." + f
			_, allowed := testOnlyFields[name]
			switch {
			case set[k][f] && allowed:
				t.Errorf("%s is in testOnlyFields but a program sets it: take its line out", name)
			case !set[k][f] && !allowed:
				unset = append(unset, name)
			}
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s: no program sets it; make it a constant, or list it in testOnlyFields with the reason tests need it", name)
	}
	for name := range testOnlyFields {
		i := strings.LastIndexByte(name, '.')
		j := strings.IndexByte(name, '.')
		found := false
		for k, names := range fields {
			if path.Base(k.pkg) == name[:j] && k.name == name[j+1:i] {
				for _, f := range names {
					found = found || f == name[i+1:]
				}
			}
		}
		if !found {
			t.Errorf("testOnlyFields names %s, which is not a field of a *Config struct: take its line out", name)
		}
	}
}

// defaultBranch reports whether an assignment to field sits under an if
// whose condition reads that field, as in "if c.F <= 0 { c.F = 64 }":
// the code filling in a default, not a caller choosing a value.
func defaultBranch(stack []ast.Node, field string) bool {
	for _, n := range stack {
		is, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		reads := false
		ast.Inspect(is.Cond, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == field {
				reads = true
			}
			return !reads
		})
		if reads {
			return true
		}
	}
	return false
}

// importNames maps the names a file refers to its imports by to their
// paths.
func importNames(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		m[name] = p
	}
	return m
}
