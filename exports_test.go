package cachecost_test

// The dead-API ratchet: every exported func, method, var or const declared
// in a non-test file under internal/ must be named by some other non-test
// file of the repository — the root package, cmd/, examples/, other
// internal packages, or the nested bench/ module. Exported types are
// exempt (constructors hand them out), and so is a method that implements
// a method of an interface the program or the standard library declares.
// The exceptions live in testdata/exports_allow.txt, one per line with a
// reason; an entry that no longer names a flagged identifier fails too,
// so the list can only shrink with the code.
//
// The same pass is the knob ratchet: an exported field of an exported
// …Config or …Options struct under internal/ (and of fault.Rule) must be
// set — as a keyed composite-literal entry or an assignment — by some
// non-test file other than the one declaring it, or be allowlisted. A
// field only its own defaulting code sets is a constant in disguise.
//
// The scan uses the standard library only: go/build's MatchFile honours
// build tags, go/parser and go/types check every package from source, and
// importer.Default() supplies std.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// exportScan is what one pass over a source tree found.
type exportScan struct {
	exported int      // exported funcs, methods, vars, consts and types under internal/
	flagged  []string // exported funcs, methods, vars and consts no other non-test file names
	knobs    int      // exported fields of the config structs
	unset    []string // config fields no other non-test file sets
}

// scanPkg is one directory's non-test files, parsed and type-checked.
type scanPkg struct {
	path  string
	rel   string // slash path relative to the module's internal/ ("" outside it)
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// stdInterfaces are searched for implemented methods whether or not the
// program imports them; transitive imports of the program add the rest.
var stdInterfaces = []string{"container/heap", "context", "encoding", "encoding/json", "flag", "fmt", "hash", "io", "net/http", "sort"}

// scanExports type-checks every non-test package under root (nested
// modules included) and reports the exported identifiers under internal/
// that no non-test file other than the declaring one names.
func scanExports(root string) (*exportScan, error) {
	fset := token.NewFileSet()
	pkgs := map[string]*scanPkg{}
	modules := map[string]string{} // dir -> module path
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(mod), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					modules[dir] = f[1]
				}
			}
		}
		modDir, modPath := dir, ""
		for {
			if p, ok := modules[modDir]; ok {
				modPath = p
				break
			}
			if modDir == root {
				return fmt.Errorf("%s: no enclosing go.mod", dir)
			}
			modDir = filepath.Dir(modDir)
		}
		relDir, _ := filepath.Rel(modDir, dir)
		relDir = filepath.ToSlash(relDir)
		p := &scanPkg{path: modPath}
		if relDir != "." {
			p.path += "/" + relDir
		}
		if r, ok := strings.CutPrefix(relDir, "internal/"); ok {
			p.rel = r
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			fn := e.Name()
			if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, fn); err != nil || !ok {
				if err != nil {
					return err
				}
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, fn), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) > 0 {
			pkgs[p.path] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	imp := &scanImporter{fset: fset, pkgs: pkgs, std: importer.Default()}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var roots []*types.Package // the program and stdInterfaces; walked with their imports
	for _, path := range append(paths, stdInterfaces...) {
		p, err := imp.Import(path)
		if err != nil {
			return nil, err
		}
		roots = append(roots, p)
	}

	// Every interface the program or std declares, by method name.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range roots {
		walk(p)
	}
	for _, p := range pkgs {
		for _, tv := range p.info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				addIface(tv.Type)
			}
		}
	}

	// The methods some named type of the program needs, declared or
	// promoted, to satisfy one of those interfaces.
	exempt := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named := tn.Type().(*types.Named)
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ms.Len(); i++ {
				f := ms.At(i).Obj().(*types.Func)
				for _, it := range ifaces[f.Name()] {
					if implements(named, ms, it) {
						exempt[f.Origin()] = true
					}
				}
			}
		}
	}

	// Which files name each object.
	users := map[types.Object]map[string]bool{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if users[obj] == nil {
				users[obj] = map[string]bool{}
			}
			users[obj][fset.Position(id.Pos()).Filename] = true
		}
	}

	// Which files set each struct field: a keyed composite-literal entry
	// or the target of an assignment.
	setters := map[types.Object]map[string]bool{}
	set := func(p *scanPkg, id *ast.Ident) {
		if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
			if setters[v.Origin()] == nil {
				setters[v.Origin()] = map[string]bool{}
			}
			setters[v.Origin()][fset.Position(id.Pos()).Filename] = true
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set(p, id)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							set(p, sel.Sel)
						}
					}
				}
				return true
			})
		}
	}

	scan := &exportScan{}
	for _, path := range paths {
		p := pkgs[path]
		if p.rel == "" {
			continue
		}
		for _, f := range p.files {
			file := fset.Position(f.Pos()).Filename
			var decls []*ast.Ident
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decls = append(decls, d.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								scan.exported++
							}
						case *ast.ValueSpec:
							decls = append(decls, s.Names...)
						}
					}
				}
			}
			for _, id := range decls {
				if !id.IsExported() {
					continue
				}
				scan.exported++
				obj := p.info.Defs[id]
				if n := len(users[obj]); n > 1 || n == 1 && !users[obj][file] || exempt[obj] {
					continue
				}
				name := p.rel + "." + id.Name
				if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						name = p.rel + "." + recvName(recv.Type()) + "." + id.Name
					}
				}
				scan.flagged = append(scan.flagged, name)
			}
		}
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !isKnobStruct(p.rel, name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				if !fv.Exported() || fv.Embedded() {
					continue
				}
				scan.knobs++
				file := fset.Position(fv.Pos()).Filename
				if n := len(setters[fv]); n > 1 || n == 1 && !setters[fv][file] {
					continue
				}
				scan.unset = append(scan.unset, p.rel+"."+name+"."+fv.Name())
			}
		}
	}
	sort.Strings(scan.flagged)
	sort.Strings(scan.unset)
	return scan, nil
}

// isKnobStruct reports whether the type named name in the package at rel
// (its path under internal/) is a configuration struct the knob ratchet
// covers.
func isKnobStruct(rel, name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || rel == "fault" && name == "Rule"
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name() // methods have defined receiver types
}

// implements reports whether named (ms is its pointer method set)
// satisfies it. An uninstantiated generic type is matched by method name.
func implements(named *types.Named, ms *types.MethodSet, it *types.Interface) bool {
	if named.TypeParams().Len() == 0 {
		return types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
	}
	for i := 0; i < it.NumMethods(); i++ {
		if ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()) == nil {
			return false
		}
	}
	return true
}

// scanImporter resolves the tree's own packages from source and
// everything else through the default (std) importer.
type scanImporter struct {
	fset *token.FileSet
	pkgs map[string]*scanPkg
	std  types.Importer
}

func (im *scanImporter) Import(path string) (*types.Package, error) {
	if _, ok := im.pkgs[path]; ok {
		return im.check(path)
	}
	return im.std.Import(path)
}

func (im *scanImporter) check(path string) (*types.Package, error) {
	p := im.pkgs[path]
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	var errs []string
	conf := types.Config{Importer: im, Error: func(err error) { errs = append(errs, err.Error()) }}
	pkg, _ := conf.Check(path, im.fset, p.files, p.info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %s", path, strings.Join(errs, "; "))
	}
	p.types = pkg
	return pkg, nil
}

// allowEntry is one line of the allowlist.
type allowEntry struct {
	name, reason string
	line         int
}

var allowReason = regexp.MustCompile(`^(test-hook|fake|oracle|sentinel|roadmap-[0-9]+)$`)

// parseAllow parses an allowlist: "name reason free text", '#' comments.
// A name without a dot is a whole package (its path under internal/).
func parseAllow(text string) ([]allowEntry, error) {
	var out []allowEntry
	for i, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 || !allowReason.MatchString(fields[1]) {
			return nil, fmt.Errorf("line %d: want \"name reason ...\" with reason test-hook, fake, oracle, sentinel or roadmap-N: %q", i+1, line)
		}
		out = append(out, allowEntry{name: fields[0], reason: fields[1], line: i + 1})
	}
	return out, nil
}

// applyAllow splits the flagged names into those no entry covers, and
// reports the entries that cover nothing.
func applyAllow(flagged []string, allow []allowEntry) (unlisted, stale []string) {
	used := make([]bool, len(allow))
	for _, name := range flagged {
		covered := false
		for i, e := range allow {
			if e.name == name || (!strings.Contains(e.name, ".") && strings.HasPrefix(name, e.name+".")) {
				covered, used[i] = true, true
			}
		}
		if !covered {
			unlisted = append(unlisted, name)
		}
	}
	for i, e := range allow {
		if !used[i] {
			stale = append(stale, fmt.Sprintf("line %d: %s", e.line, e.name))
		}
	}
	return unlisted, stale
}

// TestExportsHaveProductionCallers is the ratchet over this repository.
func TestExportsHaveProductionCallers(t *testing.T) {
	start := time.Now()
	scan, err := scanExports(".")
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(filepath.Join("testdata", "exports_allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	allow, err := parseAllow(string(text))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d exported identifiers under internal/, %d flagged; %d config fields, %d set by no other file; %d allowlisted; scan took %v",
		scan.exported, len(scan.flagged), scan.knobs, len(scan.unset), len(allow), time.Since(start).Round(time.Millisecond))
	unlisted, stale := applyAllow(append(scan.flagged, scan.unset...), allow)
	knob := map[string]bool{}
	for _, name := range scan.unset {
		knob[name] = true
	}
	for _, name := range unlisted {
		if knob[name] {
			t.Errorf("%s: a config field no other non-test file sets; make it a constant at its default, or allowlist it with a reason", name)
		} else {
			t.Errorf("%s: exported but named by no other non-test file; delete it, unexport it, or allowlist it with a reason", name)
		}
	}
	for _, s := range stale {
		t.Errorf("testdata/exports_allow.txt %s: stale entry, the identifier is used or gone", s)
	}
}

// TestExportScanFixture runs the checker on a small module whose every
// file states what the scan must conclude about it.
func TestExportScanFixture(t *testing.T) {
	scan, err := scanExports(filepath.Join("testdata", "exportsfixture"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib.LocalOnly",    // named only in its own file
		"lib.OnlyTested",   // named only from a _test.go file
		"lib.TaggedOnly",   // named only from a file a build tag excludes
		"lib.Unreferenced", // named nowhere
	}
	if strings.Join(scan.flagged, " ") != strings.Join(want, " ") {
		t.Fatalf("flagged %v, want %v", scan.flagged, want)
	}
	// lib declares five funcs, Limit, ErrEmpty, Stack and its five methods,
	// Name and String, Cache and its two methods, Outer and Size, and
	// Config.
	if scan.exported != 21 {
		t.Errorf("exported = %d, want 21", scan.exported)
	}
	// Config's four fields: cmd/app sets Keyed and Assigned; Defaulted is
	// set only in its own file, TestSet only from a test.
	if want := "lib.Config.Defaulted lib.Config.TestSet"; scan.knobs != 4 || strings.Join(scan.unset, " ") != want {
		t.Errorf("config fields %d, unset %v; want 4, %s", scan.knobs, scan.unset, want)
	}

	allow, err := parseAllow("# comment\nlib.LocalOnly oracle why\nlib.OnlyTested test-hook\nlib.Used roadmap-9\n")
	if err != nil || len(allow) != 3 {
		t.Fatalf("parse: %v, %v", allow, err)
	}
	unlisted, stale := applyAllow(scan.flagged, allow)
	if strings.Join(unlisted, " ") != "lib.TaggedOnly lib.Unreferenced" {
		t.Errorf("unlisted = %v", unlisted)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "lib.Used") {
		t.Errorf("stale = %v, want the entry for lib.Used", stale)
	}
	if unlisted, stale := applyAllow(scan.flagged, []allowEntry{{name: "lib", reason: "test-hook"}}); len(unlisted)+len(stale) != 0 {
		t.Errorf("package entry: unlisted %v, stale %v", unlisted, stale)
	}
	if _, err := parseAllow("lib.Unreferenced because\n"); err == nil {
		t.Error("an entry whose reason is outside the vocabulary was accepted")
	}
}
