package sgb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllowed names the exported funcs and methods that no non-test
// code calls but that stay exported, each with its reason. Keys
// are "<package dir>.<receiver>.<name>" (no receiver for plain funcs). A test
// hook used only by its own package's tests belongs in that package's
// export_test.go instead of on this list.
var deadExportAllowed = map[string]string{
	"internal/cluster.BIRCH":                     "§8 baseline that TestPaperShapes compares against",
	"internal/cluster.DBSCAN":                    "§8 baseline that TestPaperShapes compares against",
	"internal/cluster.KMeans":                    "§8 baseline that TestPaperShapes compares against",
	"internal/engine.Session.SetOptimizer":       "naive-plan oracle of TestAnalyzerRewritesAreBitIdentical",
	"internal/engine.DB.SetExecHook":             "statement fault hook of the chaos and degraded-mode tests, beside the wal.FaultFS hooks",
	"internal/engine.DurabilityError.Unwrap":     "errors.Is calls it",
	"internal/wal.ReplayError.Unwrap":            "errors.Is calls it",
	"internal/wal.FaultFS.FailRenameAt":          "wal.FaultFS fault hook",
	"internal/wal.FaultFS.FailSyncAt":            "wal.FaultFS fault hook",
	"internal/wal.FaultFS.FailSyncAtErr":         "wal.FaultFS fault hook",
	"internal/wal.FaultFS.FailWriteAt":           "wal.FaultFS fault hook",
	"internal/wal.FaultFS.RestoreDisk":           "wal.FaultFS fault hook",
	"internal/wal.FaultFS.ShortWriteNextSegment": "wal.FaultFS fault hook",
}

// TestNoDeadExports lists every exported func or method declared in a
// non-test file outside benchmark/ whose name is used nowhere in the
// non-test files of the root module or of benchmark/ (the benchmark is a
// caller), and fails on any that is not on deadExportAllowed. A use is any
// identifier in code other than a func or method declaration's own name.
// Matching is by name, so it is conservative: a name shared with some other
// identifier can hide a dead export, but a live one is never flagged.
func TestNoDeadExports(t *testing.T) {
	var decls []string
	// used holds every identifier in code (comments and strings excluded)
	// except the names that func and method declarations introduce.
	used := map[string]bool{}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// The go tool's own rule for directories outside a build.
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declNames := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			if fn, ok := dl.(*ast.FuncDecl); ok {
				declNames[fn.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
			}
			return true
		})
		if strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
			return nil
		}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := filepath.ToSlash(filepath.Dir(path)) + "."
			if fn.Recv != nil {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			decls = append(decls, key+fn.Name.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	flagged := map[string]bool{}
	for _, key := range decls {
		if !used[key[strings.LastIndex(key, ".")+1:]] {
			flagged[key] = true
		}
	}
	for _, k := range sortedKeys(flagged) {
		if reason, ok := deadExportAllowed[k]; ok {
			t.Logf("allowed: %s (%s)", k, reason)
		} else {
			t.Errorf("dead export: %s has no non-test caller; delete it, move a test hook to export_test.go, or allow-list it with a reason", k)
		}
	}
	for _, k := range sortedKeys(deadExportAllowed) {
		if !flagged[k] {
			t.Errorf("allow-list entry %s is no longer flagged; remove it", k)
		}
	}
	if len(decls) == 0 {
		t.Fatal("scanned no exported declarations")
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// recvName is the bare type name of a method receiver (T, *T, T[K] or *T[K]).
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
