package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"regexp"
	"testing"

	"nfp/internal/dataplane"
)

func TestParseSizes(t *testing.T) {
	if _, err := parseSizes("dc"); err != nil {
		t.Errorf("dc: %v", err)
	}
	d, err := parseSizes("128")
	if err != nil || d.Next() != 128 {
		t.Errorf("fixed: %v", err)
	}
	for _, bad := range []string{"", "abc", "10", "9000"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestLoadPolicyVariants(t *testing.T) {
	pol, names, err := loadPolicy("", "monitor,firewall")
	if err != nil || len(names) != 2 || len(pol.Rules) != 1 {
		t.Errorf("chain: %v %v %v", pol, names, err)
	}
	if _, _, err := loadPolicy("", ""); err == nil {
		t.Error("empty accepted")
	}
	if _, _, err := loadPolicy("", "bogus-nf"); err == nil {
		t.Error("unknown NF accepted")
	}
}

// TestConfigSurface pins the size of the control surface — the fields of
// dataplane.Config and the flags of nfpd — so that the next field or
// flag is a conscious, reviewed edit of this test: a switch stays only
// if a BENCHMARK.json workload, an EXPERIMENTS.md figure or a test suite
// selects it (DESIGN.md §14 lists which, per switch).
func TestConfigSurface(t *testing.T) {
	if n := reflect.TypeOf(dataplane.Config{}).NumField(); n != 13 {
		t.Errorf("dataplane.Config has %d fields, want 13", n)
	}
	src, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	define := regexp.MustCompile(`^(String|Int|Int64|Uint|Uint64|Bool|Duration|Float64|Func|Text)?(Var)?$`)
	flags := 0
	ast.Inspect(src, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && define.MatchString(sel.Sel.Name) {
					flags++
				}
			}
		}
		return true
	})
	if flags != 26 {
		t.Errorf("nfpd defines %d flags, want 26", flags)
	}
}
