// Command docscheck is the documentation gate wired into `make verify`.
// It enforces repo conventions that plain `go vet` does not:
//
//  1. every package under internal/ (and the root package) carries a
//     package comment, so `go doc ./internal/...` always explains the
//     subsystem,
//  2. every flag registered by cmd/seesim appears in README.md's flag
//     table, every `-flag` table row names a live flag (no stale rows
//     for removed flags), and a row that states a default states the
//     registered one, so the CLI surface and its documentation cannot
//     drift apart, and
//  3. the packages whose API contracts are taught by example (the LP
//     solver's warm restart, the flow solver's arena reuse) keep at
//     least one godoc Example, so `go doc` never loses the worked code,
//     and
//  4. README.md's architecture tree lists exactly the packages under
//     internal/, so a package added or deleted cannot leave it stale, and
//  5. no program under examples/ imports a see/internal/... package, so
//     every example runs on the public API alone, and
//  6. every package-level exported name, method and unexported function
//     that no non-test file of the module or of bench/ references is
//     listed, with the reason to keep it, in testdata/deadnames.txt, and
//     every listed name is still dead, so the list can only shrink
//     (packages named *test are test support and are not scanned).
//
// It exits non-zero with one line per violation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string

	pkgDirs, err := packageDirs(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	for _, dir := range pkgDirs {
		ok, err := hasPackageComment(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(1)
		}
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: package has no package comment", dir))
		}
	}

	flags, err := seesimFlags(filepath.Join(root, "cmd", "seesim", "main.go"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	problems = append(problems, checkFlagTable(string(readme), flags)...)
	problems = append(problems, checkArchitectureTree(string(readme), root, pkgDirs)...)
	exampleProblems, err := checkExampleImports(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	problems = append(problems, exampleProblems...)
	deadProblems, err := checkDeadNames(root, filepath.Join(root, "cmd", "docscheck", "testdata", "deadnames.txt"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	problems = append(problems, deadProblems...)

	// The packages whose contracts are taught by worked godoc Examples
	// (DESIGN.md §9 links to both).
	for _, pkg := range []string{"internal/lp", "internal/flow"} {
		n, err := countExamples(filepath.Join(root, filepath.FromSlash(pkg)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(1)
		}
		if n == 0 {
			problems = append(problems, fmt.Sprintf("%s: package has no godoc Example", pkg))
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d packages documented, %d seesim flags matched against README.md's flag table\n",
		len(pkgDirs), len(flags))
}

// checkFlagTable diffs README.md's seesim flag table against the flags
// actually registered: every flag must have a `| `-name ...` |` row, every
// row must name a live flag, and a row that mentions a default must contain
// the registered default value.
func checkFlagTable(readme string, flags []flagDef) []string {
	var problems []string

	// Table rows look like "| `-nodes <n>` | ... |"; collect name → row.
	rows := make(map[string]string)
	for _, line := range strings.Split(readme, "\n") {
		rest, ok := strings.CutPrefix(line, "| `-")
		if !ok {
			continue
		}
		name, _, ok := strings.Cut(rest, "`")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, " ")
		rows[name] = line
	}

	registered := make(map[string]bool, len(flags))
	for _, f := range flags {
		registered[f.Name] = true
		row, ok := rows[f.Name]
		if !ok {
			problems = append(problems,
				fmt.Sprintf("README.md: seesim flag -%s has no row in the flag table", f.Name))
			continue
		}
		if f.Default != "" && strings.Contains(row, "default") && !defaultDocumented(row, f.Default) {
			problems = append(problems,
				fmt.Sprintf("README.md: row for -%s states a default but not the registered one (%s)",
					f.Name, f.Default))
		}
	}
	stale := make([]string, 0)
	for name := range rows {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		problems = append(problems,
			fmt.Sprintf("README.md: flag table row for -%s matches no registered seesim flag", name))
	}
	return problems
}

// checkArchitectureTree diffs the internal/* entries of README.md's
// architecture tree against the package directories on disk. A top-level
// entry reads "── internal/name"; an entry nested under it ("── sub")
// names internal/name/sub.
func checkArchitectureTree(readme, root string, pkgDirs []string) []string {
	_, tree, _ := strings.Cut(readme, "## Architecture")
	_, tree, _ = strings.Cut(tree, "```\n")
	tree, _, _ = strings.Cut(tree, "```")
	listed := make(map[string]bool)
	parent := ""
	for _, line := range strings.Split(tree, "\n") {
		_, entry, ok := strings.Cut(line, "── ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimSpace(entry), " ")
		if strings.HasPrefix(name, "internal/") {
			parent = name
		} else if parent != "" {
			name = parent + "/" + name
		} else {
			continue
		}
		listed[name] = true
	}
	var problems []string
	onDisk := make(map[string]bool)
	for _, dir := range pkgDirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil || !strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			continue
		}
		rel = filepath.ToSlash(rel)
		onDisk[rel] = true
		if !listed[rel] {
			problems = append(problems, fmt.Sprintf("README.md: architecture tree is missing %s", rel))
		}
	}
	stale := make([]string, 0)
	for name := range listed {
		if !onDisk[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		problems = append(problems, fmt.Sprintf("README.md: architecture tree lists %s, which is not a package", name))
	}
	return problems
}

// checkExampleImports reports every import of a see/internal/... package
// by a Go file under examples/.
func checkExampleImports(root string) ([]string, error) {
	var problems []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "examples"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "see/internal/") {
				problems = append(problems, fmt.Sprintf("%s: example imports %s; examples use the public API only", path, p))
			}
		}
		return nil
	})
	return problems, err
}

// defaultDocumented reports whether a table row documents the registered
// default: either the value's source text appears verbatim, or — for bool
// flags — the idiomatic "on/off by default" prose does.
func defaultDocumented(row, def string) bool {
	if strings.Contains(row, def) {
		return true
	}
	lower := strings.ToLower(row)
	switch def {
	case "true":
		return strings.Contains(lower, "on by default")
	case "false":
		return strings.Contains(lower, "off by default")
	}
	return false
}

// countExamples counts godoc Example functions in a package directory's
// test files.
func countExamples(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	n := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return 0, err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				n++
			}
		}
	}
	return n, nil
}

// packageDirs returns the root package directory plus every Go package
// directory under internal/.
func packageDirs(root string) ([]string, error) {
	dirs := []string{root}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != filepath.Join(root, "internal") {
			if matches, _ := filepath.Glob(filepath.Join(path, "*.go")); len(matches) > 0 {
				dirs = append(dirs, path)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasPackageComment reports whether any non-test file in dir carries a
// package doc comment.
func hasPackageComment(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	fset := token.NewFileSet()
	found := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return false, err
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			found = true
		}
	}
	return found, nil
}

// flagDef is one registered seesim flag: its name and, when the
// registration's default is a plain literal, that default's source text
// (string literals unquoted; empty when the default is a computed
// expression and cannot be compared against prose).
type flagDef struct {
	Name    string
	Default string
}

// seesimFlags extracts the flags registered via the flag package in the
// given file — package-level flag.String("name", ...) calls as well as
// method calls on a *flag.FlagSet variable named fs (the testable-main
// pattern: fs := flag.NewFlagSet(...); fs.String("name", ...)).
func seesimFlags(path string) ([]flagDef, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	var flags []flagDef
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "flag" && pkg.Name != "fs") {
			return true
		}
		switch sel.Sel.Name {
		case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration":
		default:
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		flags = append(flags, flagDef{Name: name, Default: defaultText(call.Args[1])})
		return true
	})
	if len(flags) == 0 {
		return nil, fmt.Errorf("%s: no flag registrations found (parser out of date?)", path)
	}
	sort.Slice(flags, func(i, j int) bool { return flags[i].Name < flags[j].Name })
	return flags, nil
}

// defaultText renders a flag registration's default argument for prose
// comparison: literals as written (strings unquoted), identifiers (true,
// false) as their name, a negated literal with its sign, anything computed
// as "" (uncheckable).
func defaultText(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind == token.STRING {
			s, err := strconv.Unquote(v.Value)
			if err != nil {
				return ""
			}
			return s
		}
		return v.Value
	case *ast.Ident:
		return v.Name
	case *ast.UnaryExpr:
		if lit, ok := v.X.(*ast.BasicLit); ok && v.Op == token.SUB {
			return "-" + lit.Value
		}
	}
	return ""
}
