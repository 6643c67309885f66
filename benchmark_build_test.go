package sgb

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkModuleBuilds vets and builds the benchmark of record against
// this checkout. benchmark/ is its own module, so nothing else in `go test
// ./...` notices when a change here removes a name it compiles against. The
// environment is the one benchmark/run.sh exports, with GOPATH, the module
// cache and the go config under a temporary directory; the module's only
// dependency is `sgb => ../`, so nothing is downloaded. The build cache is
// the caller's: a cached action is keyed by its inputs, so the vet and build
// check the same sources either way, only without recompiling what the
// caller's `go test` has just compiled.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("vets and builds a second module")
	}
	// Most of this test is a child go process; let the package's CPU-bound
	// tests (TestPaperShapes) run beside it.
	t.Parallel()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	gocache, err := exec.Command(goBin, "env", "GOCACHE").Output()
	if err != nil {
		t.Fatalf("go env GOCACHE: %v", err)
	}
	tmp := t.TempDir()
	env := append(os.Environ(),
		"GOFLAGS=-mod=mod", "GOTOOLCHAIN=local", "GOPROXY=off",
		"XDG_CONFIG_HOME="+filepath.Join(tmp, "config"),
		"GOCACHE="+strings.TrimSpace(string(gocache)),
		"GOPATH="+filepath.Join(tmp, "gopath"),
		"GOMODCACHE="+filepath.Join(tmp, "gopath", "pkg", "mod"),
	)
	for _, args := range [][]string{
		{"vet", "./..."},
		{"build", "-o", filepath.Join(tmp, "bin") + string(filepath.Separator), "./..."},
	} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "benchmark"
		cmd.Env = env
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in benchmark/: %v\n%s", args, err, out)
		}
	}
}
