// Command unisoncheck runs the unison analyzer suite (wallclock, maporder,
// owner, seedflow, ckptfields — DESIGN.md §9) as a go vet tool:
//
//	go build -o /tmp/unisoncheck ./cmd/unisoncheck
//	go vet -vettool=/tmp/unisoncheck ./...
//
// go vet drives the analysis per package, test variants included, and
// skips unchanged packages through its build cache. Findings go to
// stderr; exit status 2 means findings, the vet convention.
//
// The tool implements the unitchecker protocol: go vet probes it with
// -V=full (cache key) and -flags (supported flags: none), then invokes it
// once per package with a *.cfg JSON file naming the sources to analyze
// and the export-data file of every dependency it already compiled.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"unison/internal/analysis"
	"unison/internal/analysis/analyzers"
)

func main() {
	if len(os.Args) == 2 {
		switch arg := os.Args[1]; {
		case strings.HasPrefix(arg, "-V="):
			printVersion()
			return
		case arg == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(arg, ".cfg"):
			os.Exit(runVet(arg))
		}
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=PATH/TO/unisoncheck [packages]")
	os.Exit(2)
}

// printVersion emits the -V=full line the go command uses as a cache
// key; the hash of the executable makes rebuilt tools invalidate cached
// vet results, as x/tools' unitchecker does.
func printVersion() {
	progname := strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", progname, h.Sum(nil))
}

// vetConfig mirrors the fields of the go command's vet.cfg files this
// driver needs (the full struct has more; unknown fields are ignored).
type vetConfig struct {
	Compiler    string
	ImportPath  string
	GoVersion   string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// runVet analyzes the single package described by cfgFile, returning the
// process exit code.
func runVet(cfgFile string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "unisoncheck:", err)
		return 1
	}
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return fail(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fail(fmt.Errorf("parsing %s: %v", cfgFile, err))
	}
	// The go command treats a run that leaves no facts file as failed;
	// this suite keeps no cross-package facts, so the file is empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return fail(err)
		}
	}
	if cfg.VetxOnly || len(cfg.GoFiles) == 0 {
		return 0
	}
	if cfg.Compiler != "" && cfg.Compiler != "gc" {
		return fail(fmt.Errorf("unsupported compiler %q", cfg.Compiler))
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			return fail(err)
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := analysis.NewInfo()
	conf := types.Config{
		Importer:  vetImporter{importer.ForCompiler(fset, "gc", lookup)},
		GoVersion: cfg.GoVersion,
		Error:     func(error) {},
	}
	// Test variants are named "p [p.test]"; the analyzers classify by the
	// plain import path.
	pkgPath, _, _ := strings.Cut(cfg.ImportPath, " [")
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		return fail(fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err))
	}

	type finding struct {
		analyzer string
		d        analysis.Diagnostic
	}
	var out []finding
	dirs := analysis.NewDirectives(fset, files)
	for _, a := range analyzers.All() {
		pass := &analysis.Pass{
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			Directives: dirs,
			Report:     func(d analysis.Diagnostic) { out = append(out, finding{a.Name, d}) },
		}
		if err := a.Run(pass); err != nil {
			return fail(fmt.Errorf("%s: %s: %v", pkgPath, a.Name, err))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].d.Pos < out[j].d.Pos })
	for _, f := range out {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(f.d.Pos), f.analyzer, f.d.Message)
	}
	if len(out) > 0 {
		return 2
	}
	return 0
}

// vetImporter adds the "unsafe" special case the gc importer skips when
// given an explicit lookup function.
type vetImporter struct{ imp types.Importer }

func (v vetImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return v.imp.Import(path)
}
