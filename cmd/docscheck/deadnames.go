package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// conventionMethods are methods that package fmt and package errors find by
// type assertion to interfaces declared inside their own code, so no
// interface in the program names them.
var conventionMethods = map[string]bool{"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true}

// checkDeadNames compares deadNames(root) with the allowlist file: each
// non-blank, non-# line is a name, then the reason it is kept. A dead name
// that is not listed, a listed name that is no longer dead, and an entry
// without a reason are each one problem, so the list can only shrink.
func checkDeadNames(root, allowlist string) ([]string, error) {
	dead, err := deadNames(root)
	if err != nil {
		return nil, err
	}
	text, err := os.ReadFile(allowlist)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, line := range strings.Split(string(text), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, fmt.Sprintf("%s: %s is listed without a reason", allowlist, name))
		}
		if !dead[name] {
			problems = append(problems, fmt.Sprintf("%s: %s is listed but is no longer a dead name; delete its entry", allowlist, name))
		}
		delete(dead, name)
	}
	var unlisted []string
	for name := range dead {
		unlisted = append(unlisted, name)
	}
	sort.Strings(unlisted)
	for _, name := range unlisted {
		problems = append(problems, fmt.Sprintf("%s: no non-test code references it; delete it, move it into the test that uses it, or list it with a reason in %s", name, allowlist))
	}
	return problems, nil
}

// deadNames type-checks every non-test file of the module at root and of the
// benchmark module in root/bench (when present), and returns every
// package-level exported name, every method and every unexported function
// that no non-test file references outside its own declaration. Methods are
// named Type.Method. A method also counts as referenced when it satisfies
// an interface (markImplemented) or is one of conventionMethods. Packages
// named *test are test support: their names are not judged, but their
// references count.
func deadNames(root string) (map[string]bool, error) {
	l := &loader{
		fset:  token.NewFileSet(),
		dirs:  make(map[string]*build.Package),
		files: make(map[string][]*ast.File),
		pkgs:  make(map[string]*types.Package),
		info: &types.Info{
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, mod := range []string{root, filepath.Join(root, "bench")} {
		if err := l.addModule(mod); err != nil {
			return nil, err
		}
	}
	type decl struct {
		name     string
		from, to token.Pos
	}
	decls := make(map[types.Object]decl)
	add := func(id *ast.Ident, name string, n ast.Node) {
		decls[l.info.Defs[id]] = decl{name, n.Pos(), n.End()}
	}
	receivers := make(map[*ast.Ident]bool)
	for path := range l.dirs {
		pkg, err := l.Import(path)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(pkg.Name(), "test") {
			continue
		}
		for _, f := range l.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								add(s.Name, path+"."+s.Name.Name, s)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									add(n, path+"."+n.Name, s)
								}
							}
						}
					}
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						recv := receiverIdent(d.Recv.List[0].Type)
						receivers[recv] = true
						name = recv.Name + "." + name
					} else if name == "main" || name == "init" {
						continue
					}
					add(d.Name, path+"."+name, d)
				}
			}
		}
	}

	live := make(map[types.Object]bool)
	for id, obj := range l.info.Uses {
		// A receiver names its own type.
		if receivers[id] {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if d, ok := decls[obj]; ok && (id.Pos() < d.from || id.Pos() >= d.to) {
			live[obj] = true
		}
	}
	l.markImplemented(live)
	dead := make(map[string]bool)
	for obj, d := range decls {
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && conventionMethods[fn.Name()] {
			continue
		}
		if !live[obj] {
			dead[d.name] = true
		}
	}
	return dead, nil
}

// markImplemented marks live every method through which a type of the
// loaded packages satisfies an interface that some expression of the program
// has, the standard library's included. The method set of *T holds the
// methods T promotes from its embedded fields, so a method that reaches an
// interface only by promotion (sched.Runner's, through each engine) is
// marked too.
func (l *loader) markImplemented(live map[types.Object]bool) {
	ifaces := make(map[*types.Interface]bool)
	for _, tv := range l.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			for it := range ifaces {
				if ms.Len() == 0 || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
						live[sel.Obj().(*types.Func).Origin()] = true
					}
				}
			}
		}
	}
}

// receiverIdent returns the type name of a method receiver such as T, *T or
// *T[K].
func receiverIdent(e ast.Expr) *ast.Ident {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverIdent(x.X)
	case *ast.IndexExpr:
		return receiverIdent(x.X)
	case *ast.IndexListExpr:
		return receiverIdent(x.X)
	case *ast.ParenExpr:
		return receiverIdent(x.X)
	}
	return e.(*ast.Ident)
}

// loader type-checks the packages of the modules it was given from source,
// and imports the standard library through the source importer.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]*build.Package // by import path
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
}

// addModule records every package of the module whose go.mod is in dir; a
// directory without go.mod adds nothing.
func (l *loader) addModule(dir string) error {
	gomod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	var modPath string
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
		}
	}
	if modPath == "" {
		return fmt.Errorf("%s: no module line", filepath.Join(dir, "go.mod"))
	}
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		l.dirs[strings.TrimSuffix(modPath+"/"+filepath.ToSlash(rel), "/.")] = bp
		return nil
	})
}

// Import type-checks a package of the loaded modules once, or hands a
// standard-library path to the source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	bp, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.files[path] = files
	l.pkgs[path] = pkg
	return pkg, nil
}
