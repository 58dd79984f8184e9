package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMetricFamiliesDocumented: every Metric* family constant declared in
// metrics.go has a row in the family table of docs/METRICS.md, so a new
// series cannot ship undocumented.
func TestMetricFamiliesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "metrics.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Metric") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				family, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				families++
				if !strings.Contains(string(doc), "| `"+family+"` |") {
					t.Errorf("%s (%s) has no row in docs/METRICS.md", name.Name, family)
				}
			}
		}
	}
	if families == 0 {
		t.Fatal("found no Metric* string constants in metrics.go")
	}
}
