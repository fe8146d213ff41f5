package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoRequestLiteralOutsideCore pins the spine's invariant: Facts.Request
// is the one place a Request is assembled, so no package outside core —
// tests included — may write a core.Request composite literal. The bench
// module keeps a replay harness of its own and is not checked.
func TestNoRequestLiteralOutsideCore(t *testing.T) {
	root := filepath.Join("..", "..")
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(mod), "module sweb\n") {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	fset := token.NewFileSet()
	var files int
	var found []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (path == filepath.Join(root, "bench") ||
			d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		local := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sweb/internal/core" {
				local = "core"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				if sel, ok := lit.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Request" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == local {
						found = append(found, fset.Position(lit.Pos()).String())
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked only %d Go files under %s", files, root)
	}
	for _, at := range found {
		t.Errorf("%s: core.Request literal outside core; build it with core.Facts.Request", at)
	}
}
