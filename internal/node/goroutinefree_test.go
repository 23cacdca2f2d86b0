package node_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestConsensusStackStartsNoGoroutines keeps the property the Outbox buys:
// the protocol state machines and their two runtimes (core, node, smr) start
// no goroutine and park none — no go statement, no sync.Cond, no
// sync.WaitGroup in their non-test sources — so on a simulator they run on
// the test's goroutine alone and a schedule replays from its seed. Goroutines
// belong to the edges: transports, the store, the client listener.
func TestConsensusStackStartsNoGoroutines(t *testing.T) {
	for _, dir := range []string{".", "../smr", "../core"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("%s: no Go package found", dir)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.GoStmt:
						t.Errorf("%s: go statement", fset.Position(n.Pos()))
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && (n.Sel.Name == "Cond" || n.Sel.Name == "WaitGroup" || n.Sel.Name == "NewCond") {
							t.Errorf("%s: sync.%s", fset.Position(n.Pos()), n.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
}
