package vdtuner

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestSurface is the ratchet on exported surface: every package-level
// exported identifier (function, type, constant, variable) of an internal/
// package must be referenced by something other than its own package's
// tests — its package's non-test code, another package, a binary, an
// example or the benchmark harness. An export only its own tests reach is
// surface no caller uses: delete it, or unexport it if the tests need it
// as a reference. References are counted syntactically in every .go file
// of the module, benchmark/ included. Methods and struct fields are out of
// scope: telling which type x.Name belongs to needs type information that
// go/parser alone does not give.
func TestSurface(t *testing.T) {
	mod := modulePath(t)
	type file struct {
		dir  string // slash-separated, relative to the module root
		test bool
		ast  *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	pkgName := map[string]string{} // dir -> package name of its non-test files
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
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fl := file{dir: filepath.ToSlash(filepath.Dir(p)), test: strings.HasSuffix(p, "_test.go"), ast: f}
		if !fl.test {
			pkgName[fl.dir] = f.Name.Name
		}
		files = append(files, fl)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The exports, keyed "dir.Name", and whether anything but their own
	// package's tests references them.
	type export struct {
		pos  token.Position
		used bool
	}
	exports := map[string]*export{}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		add := func(id *ast.Ident) {
			if id.IsExported() {
				exports[f.dir+"."+id.Name] = &export{pos: fset.Position(id.Pos())}
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
	}

	for _, f := range files {
		imports := map[string]string{} // local name -> imported dir
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(p, mod+"/")
			if !ok {
				continue
			}
			name := pkgName[dir]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		ref := func(dir, name string) {
			if e := exports[dir+"."+name]; e != nil && !(f.test && f.dir == dir) {
				e.used = true
			}
		}
		// Unqualified names refer to the file's own package unless it is an
		// external test package.
		own := !strings.HasSuffix(f.ast.Name.Name, "_test")
		// visit counts every qualified and unqualified use of a name and
		// skips the names that declare something: functions, methods,
		// types, values and fields.
		var visit func(ast.Node) bool
		walk := func(n ast.Node) { ast.Inspect(n, visit) }
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						ref(dir, n.Sel.Name)
						return false
					}
				}
				walk(n.X)
				return false
			case *ast.Ident:
				if own {
					ref(f.dir, n.Name)
				}
			case *ast.FuncDecl:
				if n.Recv != nil {
					walk(n.Recv)
				}
				walk(n.Type)
				if n.Body != nil {
					walk(n.Body)
				}
				return false
			case *ast.TypeSpec:
				if n.TypeParams != nil {
					walk(n.TypeParams)
				}
				walk(n.Type)
				return false
			case *ast.ValueSpec:
				if n.Type != nil {
					walk(n.Type)
				}
				for _, v := range n.Values {
					walk(v)
				}
				return false
			case *ast.Field:
				walk(n.Type)
				return false
			}
			return true
		}
		for _, d := range f.ast.Decls {
			walk(d)
		}
	}

	var offenders []string
	for key, e := range exports {
		if !e.used {
			offenders = append(offenders, key+" ("+e.pos.String()+")")
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s is referenced by nothing but its own package's tests", o)
	}
}

// modulePath reads the module path from go.mod.
func modulePath(t *testing.T) string {
	b, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(p)
		}
	}
	t.Fatal("go.mod declares no module")
	return ""
}
