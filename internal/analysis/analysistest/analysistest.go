// Package analysistest runs an analyzer over source fixtures and checks
// its diagnostics against // want comments, mirroring the x/tools package
// of the same name on the standard library alone.
//
// Fixtures live under <testdata>/src/<import/path>/*.go; the directory
// path below src/ is the fixture package's import path, so a fixture
// placed at testdata/src/unison/internal/core is classified by the
// analyzers exactly like the real package. Fixture packages may import
// each other and the standard library; stdlib export data is materialized
// once per process via `go list -export`.
//
// Expectations are trailing comments on the offending line:
//
//	time.Now() // want `wall clock`
//
// The backquoted or double-quoted string is a regexp matched against
// diagnostics reported on that line; several strings may follow one
// `want`.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"unison/internal/analysis"
)

// TestData returns the absolute path of the calling test's testdata dir.
func TestData() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run analyzes the fixture packages named by patterns (paths under
// <testdata>/src) with a and reports expectation mismatches through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	src := filepath.Join(testdata, "src")
	fset := token.NewFileSet()
	checked := make(map[string]*fixturePkg)
	for _, pat := range patterns {
		pkg, err := checkFixture(fset, src, pat, checked)
		if err != nil {
			t.Fatalf("fixture %s: %v", pat, err)
		}
		runOne(t, fset, pkg, a)
	}
}

type fixturePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// checkFixture type-checks the fixture package at path (recursively
// checking fixture dependencies first) and memoizes the result.
func checkFixture(fset *token.FileSet, src, path string, checked map[string]*fixturePkg) (*fixturePkg, error) {
	if p, ok := checked[path]; ok {
		return p, nil
	}
	dir := filepath.Join(src, filepath.FromSlash(path))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &fixturePkg{path: path}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fn := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	// Fixture-local imports first, so the importer can serve them from
	// memory; anything else resolves through stdlib export data.
	mem := make(map[string]*types.Package)
	for _, f := range p.files {
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if _, err := os.Stat(filepath.Join(src, filepath.FromSlash(ip))); err == nil {
				dep, err := checkFixture(fset, src, ip, checked)
				if err != nil {
					return nil, err
				}
				mem[ip] = dep.types
			}
		}
	}
	p.info = analysis.NewInfo()
	conf := types.Config{Importer: &fixtureImporter{fset: fset, mem: mem}}
	tpkg, err := conf.Check(path, fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tpkg
	checked[path] = p
	return p, nil
}

// fixtureImporter serves fixture packages from memory and everything else
// from the process-wide stdlib export cache.
type fixtureImporter struct {
	fset *token.FileSet
	mem  map[string]*types.Package
	std  types.Importer
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p := fi.mem[path]; p != nil {
		return p, nil
	}
	if fi.std == nil {
		fi.std = importer.ForCompiler(fi.fset, "gc", stdExportLookup)
	}
	return fi.std.Import(path)
}

var (
	stdMu      sync.Mutex
	stdExports = map[string]string{} // import path -> export data file
)

// stdExportLookup returns export data for a stdlib package, shelling to
// `go list -export` (and caching) on first use of each path.
func stdExportLookup(path string) (io.ReadCloser, error) {
	stdMu.Lock()
	defer stdMu.Unlock()
	if f, ok := stdExports[path]; ok {
		return os.Open(f)
	}
	cmd := exec.Command("go", "list", "-e", "-deps", "-export", "-f", "{{.ImportPath}}\t{{.Export}}", path)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export %s: %v", path, err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		ip, exp, ok := strings.Cut(line, "\t")
		if ok && exp != "" {
			stdExports[ip] = exp
		}
	}
	f, ok := stdExports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(f)
}

// runOne applies the analyzer and checks its diagnostics against the wants.
func runOne(t *testing.T, fset *token.FileSet, p *fixturePkg, a *analysis.Analyzer) {
	t.Helper()
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Fset:       fset,
		Files:      p.files,
		Pkg:        p.types,
		TypesInfo:  p.info,
		Directives: analysis.NewDirectives(fset, p.files),
		Report:     func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer: %v", p.path, err)
	}

	wants := collectWants(t, fset, p.files)
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] {
				continue
			}
			pos := fset.Position(d.Pos)
			if pos.Filename == w.file && pos.Line == w.line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			pos := fset.Position(d.Pos)
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile("^//\\s*want\\s+(.*)$")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					var lit string
					var err error
					switch rest[0] {
					case '`':
						end := strings.Index(rest[1:], "`")
						if end < 0 {
							t.Fatalf("%s:%d: unterminated want pattern", pos.Filename, pos.Line)
						}
						lit, rest = rest[1:1+end], strings.TrimSpace(rest[end+2:])
					case '"':
						// Find the closing quote via Unquote over prefixes.
						end := -1
						for i := 1; i < len(rest); i++ {
							if rest[i] == '"' && rest[i-1] != '\\' {
								end = i
								break
							}
						}
						if end < 0 {
							t.Fatalf("%s:%d: unterminated want pattern", pos.Filename, pos.Line)
						}
						lit, err = strconv.Unquote(rest[:end+1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
						}
						rest = strings.TrimSpace(rest[end+1:])
					default:
						t.Fatalf("%s:%d: want pattern must be quoted: %q", pos.Filename, pos.Line, rest)
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}
