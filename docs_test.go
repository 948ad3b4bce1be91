package unison_test

import (
	"fmt"
	"go/ast"
	gobuild "go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// The documents whose references must resolve against the tree. ROADMAP.md
// is checked up to its "## Recent" section, which is history.
var checkedDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"examples/README.md",
	".claude/skills/verify/SKILL.md",
	"ROADMAP.md",
}

const ciFile = ".github/workflows/ci.yml"

// TestDocReferences resolves every backticked reference in the checked
// documents, every file name in a Go comment outside bench/, every cited
// test name and every -run/-fuzz/-bench pattern of the CI workflow against
// this tree. The rules are pinned by TestDocRefResolver.
func TestDocReferences(t *testing.T) {
	tr, err := loadDocTree(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	var problems []string
	for _, name := range checkedDocs {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		problems = append(problems, tr.checkDoc(name, string(b))...)
	}
	problems = append(problems, tr.checkGoComments()...)
	ci, err := os.ReadFile(ciFile)
	if err != nil {
		t.Fatal(err)
	}
	problems = append(problems, tr.checkCI(ciFile, string(ci))...)
	for _, p := range problems {
		t.Error(p)
	}
}

// docTree is what references resolve against: the files under the module
// root and the declarations, string literals, tests and comments of its Go
// code.
type docTree struct {
	fsys      fs.FS
	files     []string            // every file, slash-separated, relative to the root
	dirs      map[string]bool     // every directory holding one
	pkgs      map[string]*goPkg   // module packages by name ("unison" is the root)
	tests     map[string][]string // Test, Benchmark, Fuzz and Example functions by package directory
	types     map[string]*goType  // declared types by bare name, merged across packages
	lits      map[string]bool     // string literals outside bench/
	benchLits map[string]bool     // string literals in bench/
	comments  []goComment         // comment groups outside bench/
}

type goPkg struct {
	decls   map[string]bool // top-level names
	members map[string]bool // fields and methods of its types
}

type goType struct {
	members map[string]bool   // fields and methods
	json    map[string]string // JSON key -> the field's type name
	embeds  []string          // embedded, aliased or underlying types whose members it shares
}

type goComment struct {
	file string
	line int    // of the group's first line
	text string // the group's comments as written, one per line
}

func loadDocTree(fsys fs.FS) (*docTree, error) {
	tr := &docTree{
		fsys:      fsys,
		dirs:      map[string]bool{},
		pkgs:      map[string]*goPkg{},
		tests:     map[string][]string{},
		types:     map[string]*goType{},
		lits:      map[string]bool{},
		benchLits: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && strings.HasPrefix(name, ".") && name != ".github" && name != ".claude" {
				return fs.SkipDir
			}
			if p == "bench/results" {
				return fs.SkipDir
			}
			return nil
		}
		tr.files = append(tr.files, p)
		for dir := path.Dir(p); dir != "."; dir = path.Dir(dir) {
			tr.dirs[dir] = true
		}
		if strings.HasSuffix(p, ".go") {
			src, err := fs.ReadFile(fsys, p)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, p, src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			tr.addGoFile(fset, p, f)
		}
		return nil
	})
	return tr, err
}

func (tr *docTree) addGoFile(fset *token.FileSet, p string, f *ast.File) {
	inBench := strings.HasPrefix(p, "bench/")
	lits := tr.lits
	if inBench {
		lits = tr.benchLits
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				lits[s] = true
			}
		}
		return true
	})
	if !inBench {
		for _, cg := range f.Comments {
			var text []string
			for _, c := range cg.List {
				text = append(text, c.Text)
			}
			tr.comments = append(tr.comments, goComment{p, fset.Position(cg.Pos()).Line, strings.Join(text, "\n")})
		}
	}
	if slices.Contains(strings.Split(p, "/"), "testdata") {
		return // fixtures, not packages of the module
	}
	dir := path.Dir(p)
	name := strings.TrimSuffix(f.Name.Name, "_test")
	pkg := tr.pkgs[name]
	if pkg == nil {
		pkg = &goPkg{decls: map[string]bool{}, members: map[string]bool{}}
		tr.pkgs[name] = pkg
	}
	if _, seen := tr.tests[dir]; !seen {
		tr.tests[dir] = nil
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				tr.typ(typeName(d.Recv.List[0].Type)).members[d.Name.Name] = true
				pkg.members[d.Name.Name] = true
				continue
			}
			pkg.decls[d.Name.Name] = true
			for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
				if strings.HasPrefix(d.Name.Name, prefix) && strings.HasSuffix(p, "_test.go") {
					tr.tests[dir] = append(tr.tests[dir], d.Name.Name)
				}
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						pkg.decls[n.Name] = true
					}
				case *ast.TypeSpec:
					pkg.decls[s.Name.Name] = true
					for m := range tr.addType(s) {
						pkg.members[m] = true
					}
				}
			}
		}
	}
}

func (tr *docTree) typ(name string) *goType {
	t := tr.types[name]
	if t == nil {
		t = &goType{members: map[string]bool{}, json: map[string]string{}}
		tr.types[name] = t
	}
	return t
}

// addType records a type's fields, interface methods, JSON keys and
// embedded types, and returns its member set.
func (tr *docTree) addType(s *ast.TypeSpec) map[string]bool {
	t := tr.typ(s.Name.Name)
	switch st := s.Type.(type) {
	case *ast.StructType:
		for _, f := range st.Fields.List {
			ft := typeName(f.Type)
			key := ""
			if f.Tag != nil {
				tag, _ := strconv.Unquote(f.Tag.Value)
				key, _, _ = strings.Cut(reflect.StructTag(tag).Get("json"), ",")
			}
			if len(f.Names) == 0 {
				t.members[ft] = true
				t.embeds = append(t.embeds, ft)
				if key != "" && key != "-" {
					t.json[key] = ft
				}
				continue
			}
			for _, n := range f.Names {
				t.members[n.Name] = true
				switch key {
				case "-":
				case "":
					t.json[n.Name] = ft
				default:
					t.json[key] = ft
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range st.Methods.List {
			if len(m.Names) == 0 {
				t.embeds = append(t.embeds, typeName(m.Type))
			}
			for _, n := range m.Names {
				t.members[n.Name] = true
			}
		}
	default:
		if n := typeName(s.Type); n != "" && n != s.Name.Name {
			t.embeds = append(t.embeds, n)
		}
	}
	return t.members
}

// typeName is the bare name of the named type an expression mentions:
// pointer, slice, map value and type arguments stripped, package dropped.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.ArrayType:
		return typeName(e.Elt)
	case *ast.MapType:
		return typeName(e.Value)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return ""
}

func (tr *docTree) hasMember(typ, member string, seen map[string]bool) bool {
	t := tr.types[typ]
	if t == nil || seen[typ] {
		return false
	}
	seen[typ] = true
	if matchName(t.members, member) {
		return true
	}
	for _, e := range t.embeds {
		if tr.hasMember(e, member, seen) {
			return true
		}
	}
	return false
}

// jsonKey reports whether keys is a dotted JSON key path of type typ.
func (tr *docTree) jsonKey(typ string, keys []string, seen map[string]bool) bool {
	t := tr.types[typ]
	if t == nil || seen[typ] {
		return false
	}
	seen[typ] = true
	if ft, ok := t.json[keys[0]]; ok {
		return len(keys) == 1 || tr.jsonKey(ft, keys[1:], map[string]bool{})
	}
	for _, e := range t.embeds {
		if tr.jsonKey(e, keys, seen) {
			return true
		}
	}
	return false
}

// matchName reports whether set holds name, or a name the glob matches.
func matchName(set map[string]bool, name string) bool {
	if !strings.Contains(name, "*") {
		return set[name]
	}
	for n := range set {
		if ok, _ := path.Match(name, n); ok {
			return true
		}
	}
	return false
}

var (
	fenceRE    = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	spanRE     = regexp.MustCompile("`([^`]+)`")
	itemRE     = regexp.MustCompile(`ROADMAP\s+items?\s+\d`)
	testNameRE = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	pathLineRE = regexp.MustCompile(`^([\w.\-/]+\.\w+):(\d+)$`)
	pathCharRE = regexp.MustCompile(`^[\w.\-/*]+$`)
	callRE     = regexp.MustCompile(`^([\w.*]+)\(.*\)$`)
	recvRE     = regexp.MustCompile(`\(\*(\w+)\)`)
	segRE      = regexp.MustCompile(`^[A-Za-z_*][\w*]*$`)
	metricRE   = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)
	// A file extension makes a dotted name a file, not an identifier:
	// `trace.pcapng` is a bundle file, not a name in package trace.
	fileExtRE = regexp.MustCompile(`\.(?:` + fileExts + `)$`)
	commentRE = regexp.MustCompile(`[\w*][\w./\-*]*\.(?:` + fileExts + `)\b`)
)

const fileExts = "go|mod|md|json|ndjson|csv|pcapng|golden|txt|sh|yml|uckpt"

// checkDoc returns one problem for every reference in the document text
// that does not resolve.
func (tr *docTree) checkDoc(name, text string) []string {
	roadmap := path.Base(name) == "ROADMAP.md"
	if roadmap {
		if i := strings.Index(text, "\n## Recent"); i >= 0 {
			text = text[:i]
		}
	}
	var problems []string
	bad := func(off int, ref, why string) {
		line := strings.Count(text[:off], "\n") + 1
		problems = append(problems, fmt.Sprintf("%s:%d: `%s`: %s", name, line, ref, why))
	}
	if !roadmap {
		for _, m := range itemRE.FindAllStringIndex(text, -1) {
			bad(m[0], text[m[0]:m[1]], "ROADMAP item numbers change; name the work instead")
		}
	}
	for _, m := range testNameRE.FindAllStringIndex(text, -1) {
		if ref := text[m[0]:m[1]]; !tr.testExists(ref) {
			bad(m[0], ref, "no test, benchmark or fuzz target has this name")
		}
	}
	// Fenced blocks hold shell sessions and code, not references; blank
	// them so that offsets, and so line numbers, stay those of the text.
	prose := fenceRE.ReplaceAllStringFunc(text, func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == '\n' {
				return r
			}
			return ' '
		}, s)
	})
	for _, m := range spanRE.FindAllStringSubmatchIndex(prose, -1) {
		span := strings.Join(strings.Fields(prose[m[2]:m[3]]), " ")
		if strings.Contains(span, " ") {
			for _, why := range tr.checkCommand(span) {
				bad(m[2], span, why)
			}
			continue
		}
		if why := tr.checkRef(span, roadmap); why != "" {
			bad(m[2], span, why)
		}
	}
	return problems
}

// checkRef resolves one backticked token and says why it does not
// resolve, or returns "" when it does or is not a reference at all.
func (tr *docTree) checkRef(ref string, roadmap bool) string {
	if strings.HasPrefix(ref, "/") || strings.Contains(ref, "://") {
		return "" // absolute paths and URLs are outside the tree
	}
	if m := pathLineRE.FindStringSubmatch(ref); m != nil {
		if !roadmap {
			return "a path:line reference drifts silently; cite the file or a name in it"
		}
		n, _ := strconv.Atoi(m[2])
		for _, f := range tr.resolvePath(m[1]) {
			if src, err := fs.ReadFile(tr.fsys, f); err == nil && strings.Count(string(src), "\n") >= n {
				return ""
			}
		}
		return "no file with this name has that many lines"
	}
	if !pathCharRE.MatchString(ref) {
		return ""
	}
	if first, _, _ := strings.Cut(ref, "/"); testNameRE.MatchString(first) {
		return "" // a subtest: the test-name rule checks its test
	}
	p := strings.TrimSuffix(strings.TrimPrefix(ref, "./"), "/...")
	p = strings.TrimSuffix(p, "/")
	if fileExtRE.MatchString(p) || strings.Contains(p, "/") {
		if !strings.Contains(path.Base(p), ".") && isStdlib(p) {
			return ""
		}
		if len(tr.resolvePath(p)) == 0 && !tr.lits[p] {
			return "no file or directory of the tree ends with this path"
		}
		return ""
	}
	return tr.checkName(ref)
}

// checkName resolves a dotted Go name: pkg.Name (a declaration, or a field
// or method of one of the package's types), pkg.Type.Member,
// Type.Member, a bench/ metric (core.empty_round_ns) or a Scenario key
// (kernel.kind). A name that none of these rules applies to, such as a
// local variable or a standard-library function, is not checked.
func (tr *docTree) checkName(ref string) string {
	id := ref
	if m := callRE.FindStringSubmatch(id); m != nil {
		id = m[1]
	}
	id = recvRE.ReplaceAllString(id, "$1")
	segs := strings.Split(id, ".")
	if len(segs) < 2 {
		return ""
	}
	for _, s := range segs {
		if !segRE.MatchString(s) {
			return ""
		}
	}
	applies, ok := false, false
	if pkg := tr.pkgs[segs[0]]; pkg != nil {
		applies = true
		switch len(segs) {
		case 2:
			ok = ok || matchName(pkg.decls, segs[1]) || matchName(pkg.members, segs[1])
		case 3:
			ok = ok || pkg.decls[segs[1]] && tr.hasMember(segs[1], segs[2], map[string]bool{})
		}
	}
	if _, isType := tr.types[segs[0]]; isType && len(segs) == 2 {
		applies = true
		ok = ok || tr.hasMember(segs[0], segs[1], map[string]bool{})
	}
	if metricRE.MatchString(id) && strings.Contains(id, "_") {
		applies = true
		ok = ok || tr.benchLits[id]
	}
	if scenario := tr.types["Scenario"]; scenario != nil && scenario.json[segs[0]] != "" {
		applies = true
		ok = ok || tr.jsonKey("Scenario", segs, map[string]bool{})
	}
	if applies && !ok {
		return "no declaration, field, method, bench/ metric or Scenario key has this name"
	}
	return ""
}

// resolvePath returns the files, or the directory, that end with p; p may
// hold * and ** globs. A bare file name matches a file of that name.
func (tr *docTree) resolvePath(p string) []string {
	re := regexp.QuoteMeta(p)
	re = strings.ReplaceAll(re, `\*\*/`, `(?:.*/)?`)
	re = strings.ReplaceAll(re, `\*`, `[^/]*`)
	rx := regexp.MustCompile(`(?:^|/)` + re + `$`)
	var out []string
	for _, f := range tr.files {
		if rx.MatchString(f) {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		for d := range tr.dirs {
			if rx.MatchString(d) {
				return []string{d}
			}
		}
	}
	return out
}

func isStdlib(importPath string) bool {
	p, err := gobuild.Import(importPath, "", gobuild.FindOnly)
	return err == nil && p.Goroot
}

// testExists reports whether some test function of the module starts
// with name (go test's -run matches unanchored, and docs cite families
// such as TestCollective*).
func (tr *docTree) testExists(name string) bool {
	for _, tests := range tr.tests {
		for _, t := range tests {
			if strings.HasPrefix(t, name) {
				return true
			}
		}
	}
	return false
}

// testFlags maps each go test flag that selects functions to the
// prefixes of the functions it selects from.
var testFlags = map[string][]string{
	"run":   {"Test", "Fuzz", "Example"},
	"fuzz":  {"Fuzz"},
	"bench": {"Benchmark"},
}

// checkCommand checks the go test invocations of a shell line: each
// -run, -fuzz and -bench alternative must match a function of a package
// the command names. A pattern that matches nothing passes green.
func (tr *docTree) checkCommand(line string) []string {
	var problems []string
	base := "."
	var cmd []string
	for _, w := range append(strings.Fields(line), ";") {
		if w != "&&" && w != "||" && w != "|" && w != ";" {
			cmd = append(cmd, strings.Trim(w, `'"`)) // patterns hold no spaces
			continue
		}
		for len(cmd) > 0 && strings.Contains(cmd[0], "=") {
			cmd = cmd[1:] // GOGC=1 and other environment assignments
		}
		switch {
		case len(cmd) == 2 && cmd[0] == "cd":
			base = path.Join(base, cmd[1])
		case len(cmd) >= 2 && cmd[0] == "go" && cmd[1] == "test":
			problems = append(problems, tr.checkGoTest(base, cmd[2:])...)
		}
		cmd = nil
	}
	return problems
}

func (tr *docTree) checkGoTest(base string, args []string) []string {
	patterns := map[string]string{}
	var pkgs []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "." || strings.HasPrefix(a, "./") {
			pkgs = append(pkgs, a)
			continue
		}
		flag, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if _, selects := testFlags[flag]; !selects || !strings.HasPrefix(a, "-") {
			continue
		}
		if !hasVal && i+1 < len(args) {
			i++
			val = args[i]
		}
		patterns[flag] = strings.Trim(val, `'"`)
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	var tests, problems []string
	for _, p := range pkgs {
		dir := path.Join(base, p)
		recursive := dir == "..." || strings.HasSuffix(dir, "/...")
		dir = strings.TrimSuffix(strings.TrimSuffix(dir, "..."), "/")
		found := false
		for d, pkgTests := range tr.tests {
			if d == dir || recursive && (dir == "" || strings.HasPrefix(d, dir+"/")) {
				found = true
				tests = append(tests, pkgTests...)
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("no Go package at %s", p))
		}
	}
	for _, flag := range []string{"run", "fuzz", "bench"} {
		pat, given := patterns[flag]
		if !given || strings.Contains(pat, "<") {
			continue // not given, or a placeholder such as -bench=<name>
		}
		if flag == "run" && patterns["bench"] != "" {
			continue // -run '^$' beside -bench deliberately selects no test
		}
		top, _, _ := strings.Cut(pat, "/")
		for _, alt := range strings.Split(top, "|") {
			rx, err := regexp.Compile(alt)
			if err != nil {
				problems = append(problems, fmt.Sprintf("-%s %q: %v", flag, alt, err))
				continue
			}
			if !slices.ContainsFunc(tests, func(t string) bool {
				return rx.MatchString(t) && slices.ContainsFunc(testFlags[flag], func(k string) bool { return strings.HasPrefix(t, k) })
			}) {
				problems = append(problems, fmt.Sprintf("-%s %q matches no function of %s", flag, alt, strings.Join(pkgs, " ")))
			}
		}
	}
	return problems
}

// checkGoComments checks that every file name a Go comment outside bench/
// mentions exists, and that no comment cites a ROADMAP item number.
func (tr *docTree) checkGoComments() []string {
	var problems []string
	for _, c := range tr.comments {
		for _, p := range tr.checkComment(c.text) {
			problems = append(problems, fmt.Sprintf("%s:%d: %s", c.file, c.line+p.line, p.why))
		}
	}
	return problems
}

type commentProblem struct {
	line int // offset from the comment's first line
	why  string
}

func (tr *docTree) checkComment(text string) []commentProblem {
	var problems []commentProblem
	add := func(off int, why string) {
		problems = append(problems, commentProblem{strings.Count(text[:off], "\n"), why})
	}
	for _, m := range itemRE.FindAllStringIndex(text, -1) {
		add(m[0], fmt.Sprintf("%q: ROADMAP item numbers change; name the work instead", text[m[0]:m[1]]))
	}
	for _, m := range commentRE.FindAllStringIndex(text, -1) {
		if f := text[m[0]:m[1]]; len(tr.resolvePath(f)) == 0 && !tr.lits[f] {
			add(m[0], f+": no file of the tree has this name")
		}
	}
	return problems
}

// checkCI checks the go test command lines of a workflow file.
func (tr *docTree) checkCI(name, text string) []string {
	var problems []string
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "run:"))
		if !strings.Contains(line, "go test") {
			continue
		}
		for _, why := range tr.checkCommand(line) {
			problems = append(problems, fmt.Sprintf("%s:%d: %s", name, i+1, why))
		}
	}
	return problems
}

// TestDocRefResolver pins each resolution rule with a reference that must
// resolve and one that must not, on an in-memory tree.
func TestDocRefResolver(t *testing.T) {
	src := func(s string) *fstest.MapFile { return &fstest.MapFile{Data: []byte(s)} }
	tr, err := loadDocTree(fstest.MapFS{
		"unison.go": src("package unison\n\nfunc Run() {}\n"),
		"internal/core/engine.go": src("package core\n\n" +
			"type Engine struct{ next []int64 }\n\nfunc (e *Engine) Group() {}\n"),
		"internal/core/sparse_test.go": src("package core\n\nimport \"testing\"\n\n" +
			"func TestSparseActivity(t *testing.T) {}\n\nfunc FuzzSparse(f *testing.F) {}\n\n" +
			"func BenchmarkSparse(b *testing.B) {}\n"),
		"internal/tcp/stream.go": src("package tcp\n\n// AttachStream is what stream.go exports.\nfunc AttachStream() {}\n"),
		"internal/app/scenario.go": src("package app\n\n" +
			"type Scenario struct {\n\tKernel KernelSpec `json:\"kernel\"`\n}\n\n" +
			"type KernelSpec struct {\n\tKind string `json:\"kind,omitempty\"`\n}\n\n" +
			"func ScheduleTopoChange() {}\n"),
		"internal/trace/trace.go":               src("package trace\n\nconst pcap = \"trace.pcapng\"\n"),
		"internal/netobs/bundle.go":             src("package netobs\n\nvar files = []string{\"series.csv\", \"records.ndjson\"}\n"),
		"internal/analysis/testdata/src/a/a.go": src("package a\n"),
		"bench/report.go":                       src("package main\n\nvar metric = \"core.empty_round_ns\"\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rule, where, text string
		ok                bool
	}{
		{"path", "README.md", "`internal/core/engine.go`", true},
		{"path", "README.md", "`internal/core/kernel.go`", false},
		{"path dir", "README.md", "`testdata/src`", true},
		{"path dir", "README.md", "`testdata/equiv/`", false},
		{"path bare", "README.md", "`sparse_test.go`", true},
		{"path bare", "README.md", "`equivalence_test.go`", false},
		{"path glob", "README.md", "`internal/*/engine.go`", true},
		{"path glob", "README.md", "`internal/*/kernel.go`", false},
		{"stdlib path", "README.md", "`math/rand`", true},
		{"path:line", "ROADMAP.md", "`internal/core/engine.go:5`", true},
		{"path:line", "ROADMAP.md", "`internal/core/engine.go:50`", false},
		{"path:line outside ROADMAP", "DESIGN.md", "`internal/core/engine.go:5`", false},
		{"pkg.Name", "README.md", "`tcp.AttachStream` and `app.ScheduleTopoChange`", true},
		{"pkg.Name", "README.md", "`tcp.AttachFlows`", false},
		{"pkg.Name root", "README.md", "`unison.Run()`", true},
		{"pkg.Name root", "README.md", "`unison.Walk`", false},
		{"pkg.Type.Member", "README.md", "`core.Engine.Group` and `core.Engine.next`", true},
		{"pkg.Type.Member", "README.md", "`core.Engine.Ungroup`", false},
		{"Type.Member", "README.md", "`Engine.Group()` and `(*Engine).Group`", true},
		{"Type.Member", "README.md", "`Engine.Close`", false},
		{"stdlib pkg", "README.md", "`time.Now` and `sync.Pool`", true},
		{"metric", "README.md", "`core.empty_round_ns`", true},
		{"metric", "README.md", "`core.full_round_ns`", false},
		{"scenario key", "README.md", "`kernel.kind`", true},
		{"scenario key", "README.md", "`kernel.flavour`", false},
		{"bundle file", "README.md", "`series.csv` and `records.ndjson`", true},
		{"bundle file", "README.md", "`samples.ndjson`", false},
		{"bundle name is no identifier", "README.md", "`trace.pcapng`", true},
		{"bundle name is no identifier", "README.md", "`trace.perfetto.json`", false},
		{"ROADMAP item", "ROADMAP.md", "see ROADMAP item 4", true},
		{"ROADMAP item", "EXPERIMENTS.md", "see ROADMAP\nitem 4", false},
		{"ROADMAP Recent", "ROADMAP.md", "ok\n## Recent\n- `internal/core/gone.go`", true},
		{"ROADMAP Recent", "ROADMAP.md", "`internal/core/gone.go`\n## Recent\n", false},
		{"test name", "README.md", "TestSparseActivity, `TestSparse*`, `FuzzSparse`", true},
		{"test name", "README.md", "`TestDenseActivity`", false},
		{"doc command", "README.md", "`go test -run 'TestSparse|FuzzSparse' ./internal/core/`", true},
		{"doc command", "README.md", "`go test -run 'TestSparse|TestDense' ./internal/core/`", false},
		{"ci -run", "ci", "      run: go test -count=1 -run='TestSparse' ./internal/...", true},
		{"ci -run", "ci", "      run: go test -count=1 -run TestSparse ./internal/tcp/", false},
		{"ci -fuzz", "ci", "go test -fuzz=FuzzSparse -fuzztime=10s ./internal/core/", true},
		{"ci -fuzz", "ci", "go test -fuzz=FuzzDense -fuzztime=10s ./internal/core/", false},
		{"ci -run beside -bench", "ci", "cd internal && go test -run=NONE -bench=. ./...", true},
		{"ci -bench", "ci", "go test -run=NONE -bench=Dense ./...", false},
		{"ci package", "ci", "go test ./internal/nope/", false},
		{"comment", "comment", "pinned by sparse_test.go, written as records.ndjson", true},
		{"comment", "comment", "pinned by equivalence_test.go", false},
		{"comment item", "comment", "the fit is ROADMAP item 5", false},
	} {
		var problems []string
		switch tc.where {
		case "ci":
			problems = tr.checkCI("ci.yml", tc.text)
		case "comment":
			for _, p := range tr.checkComment(tc.text) {
				problems = append(problems, p.why)
			}
		default:
			problems = tr.checkDoc(tc.where, tc.text)
		}
		if ok := len(problems) == 0; ok != tc.ok {
			t.Errorf("%s: %s in %s: resolves=%v, want %v (problems: %q)", tc.rule, tc.text, tc.where, ok, tc.ok, problems)
		}
	}
	if got := tr.checkGoComments(); len(got) != 0 {
		t.Errorf("comments of the in-memory tree: %q", got)
	}
}
