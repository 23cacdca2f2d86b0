package node_test

import (
	"fmt"
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
		fset, files := parseSources(t, dir)
		for _, file := range files {
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

// TestStoreStartsOneGoroutine keeps group commit a single loop: the only go
// statement in the store's non-test sources starts its flusher, which
// writes, fsyncs and releases effects itself — the one goroutine a
// simulator must account for to schedule fsync completion.
func TestStoreStartsOneGoroutine(t *testing.T) {
	fset, files := parseSources(t, "../storage")
	var started []string
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				name := "?"
				if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok {
					name = sel.Sel.Name
				}
				started = append(started, fmt.Sprintf("%s: go %s", fset.Position(g.Pos()), name))
			}
			return true
		})
	}
	if len(started) != 1 || !strings.HasSuffix(started[0], "go flusher") {
		t.Fatalf("internal/storage starts %d goroutines, want only the flusher: %v", len(started), started)
	}
}

// parseSources parses the non-test Go files of the package in dir.
func parseSources(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
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
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			files = append(files, file)
		}
	}
	return fset, files
}
