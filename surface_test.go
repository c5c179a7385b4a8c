package vdtuner

import (
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"vdtuner/internal/vdms"
)

// TestSurface keeps the module's surface known and small.
//
// "used": every exported package-level identifier (function, type,
// constant, variable) of an internal/ package, and every exported method
// declared there, must be referenced by something other than its own
// package's tests: its package's non-test code, another package, a binary
// or the benchmark harness. An export only its own tests reach is surface
// no caller uses: delete it, or unexport it if the tests need it as a
// reference. A method that implements an interface the module or the
// standard library declares is exempt, because it is called through that
// interface (fmt.Stringer, sort.Interface, index.Index, ...). Struct
// fields are out of scope: JSON and %+v read them by reflection. The tree
// is type-checked with go/types, so x.Name resolves to the one declaration
// it denotes; files are selected as the default build context selects
// them.
//
// "listing": testdata/surface.txt lists the exported identifiers and
// methods of every internal/ package, the knob names, the flags of the
// binaries under cmd/, the environment variables read, the build tags,
// the wire ops and the Make targets. The test renders that listing from
// the tree and compares it exactly; a change to the surface is an edit to
// the file, and a mismatch prints the lines to add and to remove.
func TestSurface(t *testing.T) {
	m := loadModule(t)
	t.Run("used", func(t *testing.T) {
		for _, e := range m.exports() {
			if !e.used && !m.implementsInterface(e) {
				t.Errorf("%s (%s) is referenced by nothing but its own package's tests",
					e.name, m.fset.Position(e.obj.Pos()))
			}
		}
	})
	t.Run("listing", func(t *testing.T) {
		const file = "testdata/surface.txt"
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(b), m.listing(t); got != want {
			add, remove := lineDiff(got, want)
			t.Errorf("%s does not match the tree; edit it:\n%s%s", file, add, remove)
		}
	})
}

// module is the type-checked module. Each package directory's non-test
// and in-package test files are checked together, once: an in-package
// test cannot import a package that imports its own, so the order stays
// acyclic.
type module struct {
	path  string
	fset  *token.FileSet
	std   types.Importer
	files []*ast.File               // every .go file, build-constrained ones included
	pkgs  map[string][]*ast.File    // import path -> the files the build selects
	typed map[string]*types.Package // import path -> checked package
	used  map[types.Object]bool     // referenced other than by the declaring package's tests
}

// export is one tracked identifier: a package-level one ("dir Name") or a
// method ("dir Type.Method") of an internal/ package.
type export struct {
	obj  types.Object
	name string
	recv *types.Named // nil for package-level identifiers
	used bool
}

func loadModule(t *testing.T) *module {
	t.Helper()
	m := &module{
		path:  modulePath(t),
		fset:  token.NewFileSet(),
		pkgs:  map[string][]*ast.File{},
		typed: map[string]*types.Package{},
		used:  map[types.Object]bool{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
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
		f, err := parser.ParseFile(m.fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		m.files = append(m.files, f)
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); !ok {
			return err
		}
		ip := path.Join(m.path, filepath.ToSlash(filepath.Dir(p)))
		if strings.HasSuffix(f.Name.Name, "_test") {
			ip += "_test" // an external test package
		}
		m.pkgs[ip] = append(m.pkgs[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ip := range m.pkgs {
		if _, err := m.Import(ip); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// Import resolves the module's packages to their checked form and every
// other path to the standard library, type-checked from source.
func (m *module) Import(ip string) (*types.Package, error) {
	files, ok := m.pkgs[ip]
	if !ok {
		return m.std.Import(ip)
	}
	if p := m.typed[ip]; p != nil {
		return p, nil
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	p, err := (&types.Config{Importer: m}).Check(ip, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.typed[ip] = p
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), m.path+"/internal/") {
			continue
		}
		use := m.fset.File(id.Pos()).Name()
		if strings.HasSuffix(use, "_test.go") && filepath.Dir(use) == filepath.Dir(m.fset.File(obj.Pos()).Name()) {
			continue // the declaring package's own test
		}
		m.used[obj] = true
	}
	return p, nil
}

// exports lists the exported package-level identifiers and methods that
// the non-test files of internal/ packages declare, sorted by name.
func (m *module) exports() []*export {
	var out []*export
	add := func(obj types.Object, name string, recv *types.Named) {
		if obj.Exported() && !strings.HasSuffix(m.fset.File(obj.Pos()).Name(), "_test.go") {
			out = append(out, &export{obj: obj, name: name, recv: recv, used: m.used[obj]})
		}
	}
	for ip, p := range m.typed {
		dir, ok := strings.CutPrefix(ip, m.path+"/")
		if !ok || !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			add(obj, dir+" "+name, nil)
			tn, isType := obj.(*types.TypeName)
			named, ok := obj.Type().(*types.Named)
			if !isType || !ok || tn.IsAlias() {
				continue
			}
			methods := named.Method
			n := named.NumMethods()
			if iface, ok := named.Underlying().(*types.Interface); ok {
				methods, n = iface.ExplicitMethod, iface.NumExplicitMethods()
			}
			for i := 0; i < n; i++ {
				add(methods(i), dir+" "+name+"."+methods(i).Name(), named)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// implementsInterface reports whether e is a method of a type that
// implements some other interface, declared by the module's non-test
// files or by a standard-library package the module reaches, that has a
// method of e's name.
func (m *module) implementsInterface(e *export) bool {
	if e.recv == nil {
		return false
	}
	ifaces := []types.Type{types.Universe.Lookup("error").Type()}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if _, ok := obj.Type().Underlying().(*types.Interface); ok && obj.Type() != e.recv &&
				!strings.HasSuffix(m.fset.Position(obj.Pos()).Filename, "_test.go") {
				ifaces = append(ifaces, obj.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range m.typed {
		walk(p)
	}
	for _, it := range ifaces {
		iface := it.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == e.obj.Name() &&
				(types.Implements(e.recv, iface) || types.Implements(types.NewPointer(e.recv), iface)) {
				return true
			}
		}
	}
	return false
}

// surfaceHeader opens testdata/surface.txt.
const surfaceHeader = `# The module's surface, one item a line, sorted; TestSurface renders it
# from the tree and fails on any difference. Kinds:
#   env     an environment variable the code reads
#   export  an exported identifier, or Type.Method, of an internal/ package
#   flag    a flag of a binary under cmd/
#   knob    a row of vdms.Knobs
#   make    a Makefile target
#   op      a wire op the server dispatches
#   tag     a term of a //go:build constraint
`

// listing renders testdata/surface.txt from the tree.
func (m *module) listing(t *testing.T) string {
	set := map[string]bool{}
	for _, e := range m.exports() {
		if e.recv == nil || e.recv.Obj().Exported() { // methods of unexported types are reached through interfaces
			set["export "+e.name] = true
		}
	}
	for _, k := range vdms.Knobs {
		set["knob "+k.Name] = true
	}
	for _, f := range m.files {
		file := filepath.ToSlash(m.fset.File(f.Pos()).Name())
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if x, err := constraint.Parse(c.Text); err == nil && constraint.IsGoBuild(c.Text) {
					buildTags(x, set)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				x, _ := sel.X.(*ast.Ident)
				switch {
				case x == nil:
				case x.Name == "os" && (sel.Sel.Name == "Getenv" || sel.Sel.Name == "LookupEnv"):
					if s, ok := stringArg(n.Args); ok {
						set["env "+s] = true
					}
				case x.Name == "flag" && strings.HasPrefix(file, "cmd/"):
					if s, ok := stringArg(n.Args); ok {
						set["flag "+path.Base(path.Dir(file))+" -"+s] = true
					}
				}
			case *ast.SwitchStmt:
				if sel, ok := n.Tag.(*ast.SelectorExpr); ok && sel.Sel.Name == "Op" &&
					strings.HasPrefix(file, "internal/server/") && !strings.HasSuffix(file, "_test.go") {
					for _, c := range n.Body.List {
						for _, v := range c.(*ast.CaseClause).List {
							if s, ok := stringArg([]ast.Expr{v}); ok {
								set["op "+s] = true
							}
						}
					}
				}
			}
			return true
		})
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	target := regexp.MustCompile(`^([A-Za-z][\w-]*):([^=]|$)`)
	for _, line := range strings.Split(string(mk), "\n") {
		if g := target.FindStringSubmatch(line); g != nil {
			set["make "+g[1]] = true
		}
	}
	lines := make([]string, 0, len(set))
	for l := range set {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return surfaceHeader + strings.Join(lines, "\n") + "\n"
}

// buildTags adds a "tag" line for every term of a build constraint.
func buildTags(x constraint.Expr, set map[string]bool) {
	switch x := x.(type) {
	case *constraint.TagExpr:
		set["tag "+x.Tag] = true
	case *constraint.NotExpr:
		buildTags(x.X, set)
	case *constraint.AndExpr:
		buildTags(x.X, set)
		buildTags(x.Y, set)
	case *constraint.OrExpr:
		buildTags(x.X, set)
		buildTags(x.Y, set)
	}
}

// stringArg returns the first string literal among args.
func stringArg(args []ast.Expr) (string, bool) {
	for _, a := range args {
		if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, err := strconv.Unquote(lit.Value)
			return s, err == nil
		}
	}
	return "", false
}

// lineDiff returns the lines of want missing from got, each prefixed
// "+ ", and the lines of got missing from want, each prefixed "- ".
func lineDiff(got, want string) (add, remove string) {
	count := map[string]int{}
	for _, l := range strings.Split(got, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			count[l]--
		} else {
			add += "+ " + l + "\n"
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if count[l] > 0 {
			count[l]--
			remove += "- " + l + "\n"
		}
	}
	if add == "" && remove == "" {
		add = "(same lines in another order: keep them sorted)\n"
	}
	return add, remove
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
