package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// This file implements the //unison: directive grammar shared by the
// analyzer suite. A directive is a line comment of the form
//
//	//unison:NAME [args...]
//
// written with no space after "//", in the style of //go: directives.
// The suite defines:
//
//	//unison:wallclock-ok REASON   – allow a wall-clock read on this line;
//	                                 REASON is mandatory.
//	//unison:ordered [REASON]      – assert a map range is order-safe.
//	//unison:owner producer|consumer
//	                               – on a func/method doc: declare which
//	                                 side of an SPSC hand-off it is.
//	//unison:owner transfer REASON – at a call site: assert an ownership
//	                                 transfer (e.g. a phase barrier)
//	                                 makes mixing sides safe here.
//	//unison:ckpt-skip REASON      – on a struct field: it is config or
//	                                 derived state a checkpoint need not
//	                                 carry; REASON is mandatory.
//
// A directive suppresses diagnostics reported on its own line, or — when
// the comment stands alone on its line — on the first following line. The
// owner side declarations are read from FuncDecl doc comments directly by
// the owner analyzer; the line index here serves call-site escapes.

// A Directive is one parsed //unison: comment.
type Directive struct {
	Pos  token.Pos
	Name string // e.g. "wallclock-ok", "ordered", "owner"
	Args string // remainder of the line, space-trimmed; may be empty
}

// Directives indexes a package's //unison: directives by file and line.
type Directives struct {
	fset   *token.FileSet
	byLine map[string]map[int][]Directive // filename -> line -> directives
}

// ParseDirective parses a single comment's text, returning ok=false if it
// is not a //unison: directive.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, "//unison:") {
		return Directive{}, false
	}
	body := strings.TrimPrefix(text, "//unison:")
	name, args, _ := strings.Cut(body, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return Directive{}, false
	}
	return Directive{Pos: c.Pos(), Name: name, Args: strings.TrimSpace(args)}, true
}

// NewDirectives scans the files' comments and builds the line index.
func NewDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset, byLine: make(map[string]map[int][]Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := ParseDirective(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				// A comment that starts its line annotates the line below;
				// a trailing comment annotates its own line. Column 1 is
				// not a reliable tell (indented standalone comments), so
				// compare against the line's first non-comment token via
				// the file's line start: treat the directive as standalone
				// when nothing but whitespace precedes it.
				line := pos.Line
				if standaloneComment(fset, f, c) {
					line++
				}
				m := d.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]Directive)
					d.byLine[pos.Filename] = m
				}
				m[line] = append(m[line], dir)
			}
		}
	}
	return d
}

// standaloneComment reports whether c is the first token on its line.
func standaloneComment(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	tf := fset.File(c.Pos())
	if tf == nil {
		return false
	}
	pos := tf.Position(c.Pos())
	lineStart := tf.LineStart(pos.Line)
	// Walk AST tokens is overkill: if any non-comment node starts on the
	// same line before the comment, the comment trails code.
	trailing := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || trailing {
			return false
		}
		if _, isFile := n.(*ast.File); isFile {
			return true
		}
		np := n.Pos()
		if np >= lineStart && np < c.Pos() && tf.Position(np).Line == pos.Line {
			trailing = true
			return false
		}
		// Keep descending only while the node could overlap the line.
		return n.Pos() <= c.Pos() && n.End() >= lineStart
	})
	return !trailing
}

// At returns the directives named name that annotate the line containing
// pos (whether written on that line or standing alone on the line above).
func (d *Directives) At(pos token.Pos, name string) []Directive {
	if d == nil || !pos.IsValid() {
		return nil
	}
	p := d.fset.Position(pos)
	var out []Directive
	for _, dir := range d.byLine[p.Filename][p.Line] {
		if dir.Name == name {
			out = append(out, dir)
		}
	}
	return out
}
