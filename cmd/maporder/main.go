// maporder checks that no production code under internal/ lets Go's map
// iteration order decide anything: every `range` over a map must either sort
// what it collects or carry an `// order-free` comment saying why the order
// cannot matter. It turns DESIGN §16's claim — nothing but the event heap
// decides order, not map iteration — from an assertion into a check.
//
// Usage (from the root of the repository; `make maporder` wraps it):
//
//	maporder [dir]
//
// It parses and type-checks every non-test package under dir (default
// internal) with go/types, standard-library imports read from the compiler's
// export data, and prints each map range that does neither, one line each as
// file:line: the range expression. It exits 1 when it printed any.
//
// "Sorts what it collects" is read syntactically: the range body appends to
// a slice (x = append(x, …)), and the function holding the range passes that
// same x to a sort (sort.Strings, sort.Slice, slices.Sort, slices.SortFunc,
// …) after the range statement. The comment may end the line of the `for` or
// stand on the line above it.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// marker is the comment that declares a map range order-free.
const marker = "order-free"

func main() {
	root := "internal"
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, err := checkTree(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maporder:", err)
		os.Exit(2)
	}
	wd, _ := os.Getwd()
	for _, f := range findings {
		fmt.Println(strings.TrimPrefix(f, wd+string(filepath.Separator)))
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "maporder: %d map range(s) neither sort what they collect nor say // %s\n", len(findings), marker)
		os.Exit(1)
	}
}

// checkTree type-checks every package directory under root and returns the
// unmarked, unsorted map ranges of its non-test files, in lexical order of
// directory and file and then by position.
func checkTree(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, modRoot, err := module(root)
	if err != nil {
		return nil, err
	}
	imp := &sourceImporter{
		fset: token.NewFileSet(), modPath: modPath, modRoot: modRoot,
		std: importer.Default(), pkgs: map[string]*checked{},
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if err == nil && d.IsDir() {
			dirs = append(dirs, path)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil {
			return nil, err
		}
		c, err := imp.check(filepath.ToSlash(filepath.Join(modPath, rel)))
		if err != nil {
			return nil, err
		}
		if c != nil {
			findings = append(findings, c.unordered(imp.fset)...)
		}
	}
	return findings, nil
}

// module finds the go.mod at or above dir and returns its module path and
// directory.
func module(dir string) (path, root string, err error) {
	for d := dir; ; d = filepath.Dir(d) {
		if b, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					return f[1], d, nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod names no module", d)
		}
		if d == filepath.Dir(d) {
			return "", "", fmt.Errorf("no go.mod at or above %s", dir)
		}
	}
}

// checked is one type-checked package: its non-test files and their types.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// sourceImporter type-checks the module's own packages from source, once
// each, and reads the standard library's from export data.
type sourceImporter struct {
	fset             *token.FileSet
	modPath, modRoot string
	std              types.Importer
	pkgs             map[string]*checked
}

func (imp *sourceImporter) Import(path string) (*types.Package, error) {
	if path != imp.modPath && !strings.HasPrefix(path, imp.modPath+"/") {
		return imp.std.Import(path)
	}
	c, err := imp.check(path)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("%s: no Go files", path)
	}
	return c.pkg, nil
}

// check parses and type-checks the module package path; nil for a directory
// with no non-test Go files.
func (imp *sourceImporter) check(path string) (*checked, error) {
	if c, ok := imp.pkgs[path]; ok {
		return c, nil
	}
	dir := filepath.Join(imp.modRoot, strings.TrimPrefix(strings.TrimPrefix(path, imp.modPath), "/"))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(imp.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		imp.pkgs[path] = nil
		return nil, nil
	}
	c := &checked{files: files, info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}}
	conf := types.Config{Importer: imp}
	if c.pkg, err = conf.Check(path, imp.fset, files, c.info); err != nil {
		return nil, err
	}
	imp.pkgs[path] = c
	return c, nil
}

// unordered returns file:line and expression of every range over a map in c
// that neither carries the marker nor is followed, in its function, by a sort.
func (c *checked) unordered(fset *token.FileSet) []string {
	var out []string
	for _, f := range c.files {
		marked := map[int]bool{} // lines a marker comment ends
		for _, g := range f.Comments {
			for _, cm := range g.List {
				if strings.Contains(cm.Text, marker) {
					marked[fset.Position(cm.End()).Line] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := c.info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
					return true
				}
				line := fset.Position(rs.For).Line
				if marked[line] || marked[line-1] || c.sortsAfter(fn.Body, rs.End(), collected(rs.Body)) {
					return true
				}
				out = append(out, fmt.Sprintf("%s: range over map %s", fset.Position(rs.For), types.ExprString(rs.X)))
				return true
			})
		}
	}
	return out
}

// collected returns the slices body appends to, as x = append(x, …)
// spells them.
func collected(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
			if x := types.ExprString(as.Lhs[0]); x == types.ExprString(call.Args[0]) {
				out[x] = true
			}
		}
		return true
	})
	return out
}

// sortsAfter reports whether body, after pos, passes one of the slices in
// sorted to a sort function of package sort or slices.
func (c *checked) sortsAfter(body *ast.BlockStmt, pos token.Pos, sorted map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if found || !ok || call.Pos() < pos || len(call.Args) == 0 || !sorted[types.ExprString(call.Args[0])] {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := c.info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch name := fn.Name(); fn.Pkg().Path() {
		case "sort":
			found = strings.HasPrefix(name, "Sort") || name == "Strings" || name == "Ints" || name == "Float64s" || name == "Slice" || name == "SliceStable" || name == "Stable"
		case "slices":
			found = strings.HasPrefix(name, "Sort")
		}
		return !found
	})
	return found
}
