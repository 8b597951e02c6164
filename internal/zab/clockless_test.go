package zab

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// coreFiles hold the protocol core: everything a seed must be able to
// replay. peer.go is its production driver and the one place in the
// package that may own a goroutine, a ticker and a clock.
var coreFiles = []string{"core.go", "election.go", "sync.go", "broadcast.go", "membership.go", "commitlog.go", "reconfig.go"}

// TestCoreIsClockless keeps the core what the simulator needs it to be:
// no goroutine, no select, no channel, no lock, no clock read, no
// scheduler yield, and no word to the transport except through env.
func TestCoreIsClockless(t *testing.T) {
	banned := map[string]bool{
		"time.Now": true, "time.Since": true, "time.Sleep": true, "time.NewTicker": true, "time.After": true,
		"time.Tick": true, "time.NewTimer": true, "time.AfterFunc": true, "obs.Now": true, "runtime.Gosched": true,
		"sync.Mutex": true, "sync.RWMutex": true, "sync.WaitGroup": true, "sync.Cond": true, "sync.Once": true,
	}
	transport := map[string]bool{"Send": true, "SendMany": true, "Receive": true, "Close": true, "SendToMany": true}
	fset := token.NewFileSet()
	for _, name := range coreFiles {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bad := func(n ast.Node, what string) { t.Errorf("%s: %s in the core", fset.Position(n.Pos()), what) }
		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" || path == "runtime" || path == "sync" {
				bad(imp, "import of "+path)
			}
		}
		for _, decl := range file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			inEnv := fn != nil && fn.Recv != nil && receiverIs(fn.Recv.List[0].Type, "env")
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					bad(n, "go statement")
				case *ast.SelectStmt:
					bad(n, "select")
				case *ast.ChanType:
					bad(n, "channel type")
				case *ast.SendStmt:
					bad(n, "channel send")
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						bad(n, "channel receive")
					}
				case *ast.SelectorExpr:
					if pkg, ok := n.X.(*ast.Ident); ok && banned[pkg.Name+"."+n.Sel.Name] {
						bad(n, pkg.Name+"."+n.Sel.Name)
					}
					if transport[n.Sel.Name] && !inEnv {
						bad(n, "transport method "+n.Sel.Name+" outside env")
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && transport[id.Name] && !inEnv {
						bad(n, id.Name+" outside env")
					}
				}
				return true
			})
		}
	}
}

func receiverIs(expr ast.Expr, name string) bool {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == name
}
