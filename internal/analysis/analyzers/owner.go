package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"unison/internal/analysis"
)

// Owner enforces the SPSC mailbox contract. The staged-mailbox design
// (§4's lock-free rounds) is only correct while each ring/outbox has one
// producer and one consumer per phase; the happens-before edges come from
// the phase barriers, not from the data structure. Methods declare their
// side in their doc comment:
//
//	//unison:owner producer
//	func (o *outbox) put(...)
//
// and the analyzer flags any single goroutine scope (a function body, or
// a `go func` literal) that calls both sides on the same object without
// declaring the hand-off.
var Owner = &analysis.Analyzer{
	Name: "owner",
	Doc: `enforce single-producer/single-consumer mailbox annotations

Functions and methods annotated //unison:owner producer (or consumer)
in their doc comment declare which side of an SPSC hand-off they are.
Within one goroutine-launch scope — a function body, or the body of a
function literal started with go — calling both a producer-side and a
consumer-side operation on the same receiver (for free functions, the
first argument) is a diagnostic: one goroutine is acting as both ends
of the ring, which either deadlocks or races.

Legitimate mixing — a barrier between phases transfers ownership — is
declared at the consuming call site with a mandatory reason:

	buf = gather(k.out, lp, buf) //unison:owner transfer phase-3 read; the phase-2 barrier published every phase-1 write

A bare //unison:owner transfer with no reason is itself a diagnostic.

A third side, //unison:owner checkpoint, marks quiesced single-owner
access points — Checkpointer.CkptSave/CkptLoad and friends. A load runs
before any worker exists. A save runs in the round engine's save phase:
behind the phase-4 barrier, with nothing simulating, each layer's
CkptSave on whichever parked worker claimed it, so a layer still has
one owner though several layers are saved at once. Calls to
checkpoint-side functions never conflict with either ring side, and
the body of a checkpoint-side function may itself touch both ends.

The annotation is package-local: sides are read from this package's
syntax, so producer/consumer pairs must live in the package that
declares the ring (true of the core mailbox and the obs rings). Test
files are not checked.`,
	Run: runOwner,
}

type ownerSide int

const (
	sideNone ownerSide = iota
	sideProducer
	sideConsumer
	// sideCheckpoint marks a quiesced single-owner access point (a
	// Checkpointer load, or a save on the one worker that claimed the
	// layer in the save phase): exempt from mixing checks on both the call
	// and declaration side.
	sideCheckpoint
)

func runOwner(pass *analysis.Pass) error {
	// Pass 1: collect side declarations from doc comments.
	sides := make(map[*types.Func]ownerSide)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					dir, ok := analysis.ParseDirective(c)
					if !ok || dir.Name != "owner" {
						continue
					}
					fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
					if fn == nil {
						continue
					}
					switch word(dir.Args) {
					case "producer":
						sides[fn] = sideProducer
					case "consumer":
						sides[fn] = sideConsumer
					case "checkpoint":
						sides[fn] = sideCheckpoint
					default:
						// Report on the declaration line, not the comment:
						// a directive line cannot carry expectations or
						// further annotations of its own.
						pass.Reportf(fd.Name.Pos(), "//unison:owner on a declaration must say producer, consumer or checkpoint, got %q", dir.Args)
					}
				}
			}
		}
	}
	if len(sides) == 0 {
		return nil
	}

	// Pass 2: walk goroutine scopes and catch side mixing per object.
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				// A checkpoint-side body runs quiesced and owns every
				// ring outright; mixing inside it is the point.
				if fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); fn != nil && sides[fn] == sideCheckpoint {
					continue
				}
				checkScope(pass, sides, fd.Body, nil)
			}
		}
	}
	return nil
}

// checkScope scans one goroutine scope. Function literals launched with
// `go` open a nested scope of their own; other literals are treated as
// part of the current scope is *not* attempted — they also open a scope,
// conservatively, since the suite cannot see where the closure runs.
func checkScope(pass *analysis.Pass, sides map[*types.Func]ownerSide, body ast.Node, parentAliases map[string]string) {
	aliases := collectAliases(body, parentAliases)
	seen := make(map[string]ownerSide) // receiver key -> first side seen
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != nil {
				checkScope(pass, sides, n.Body, aliases)
			}
			return false
		case *ast.CallExpr:
			fn := calleeFunc(pass, n)
			if fn == nil {
				return true
			}
			side, ok := sides[fn]
			if !ok || side == sideNone || side == sideCheckpoint {
				return true
			}
			key, okKey := receiverKey(pass, n)
			if !okKey {
				return true
			}
			key = canonicalKey(key, aliases)
			prev, seenBefore := seen[key]
			if !seenBefore {
				seen[key] = side
				return true
			}
			if prev == side {
				return true
			}
			if ok, missing := escapedTransfer(pass, n.Pos()); ok {
				if missing {
					pass.Reportf(n.Pos(), "//unison:owner transfer needs a reason string")
				}
				return true
			}
			pass.Reportf(n.Pos(), "%s is %s-side but this scope already used the %s side of %s; one goroutine may not hold both ends of an SPSC ring (annotate //unison:owner transfer <reason> if a barrier hands ownership over)",
				fn.Name(), sideName(side), sideName(prev), key)
		}
		return true
	})
}

// collectAliases maps short-variable names to the root expression they
// alias, so `ob := &r.outboxes[w]; ob.reset()` and `gather(r.outboxes, …)`
// resolve to the same ring. Only `name := expr` forms rooted in an
// identifier or selector are tracked; anything opaque (a call result, a
// channel receive) stays under its own name.
func collectAliases(body ast.Node, parent map[string]string) map[string]string {
	aliases := make(map[string]string, len(parent))
	for k, v := range parent {
		aliases[k] = v
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			root := rootString(as.Rhs[i])
			if root != "" && root != id.Name {
				aliases[id.Name] = canonicalKey(root, aliases)
			}
		}
		return true
	})
	return aliases
}

// rootString strips address-of, dereference, parenthesization and
// indexing, returning the underlying identifier or selector path ("" when
// the expression does not root in one).
func rootString(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return ""
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident, *ast.SelectorExpr:
			return exprString(e)
		default:
			return ""
		}
	}
}

// canonicalKey rewrites the leading identifier of key through the alias
// map until it reaches a fixed point (bounded against alias cycles).
func canonicalKey(key string, aliases map[string]string) string {
	for range 10 {
		head, rest, dotted := strings.Cut(key, ".")
		canon, ok := aliases[head]
		if !ok {
			return key
		}
		if dotted {
			key = canon + "." + rest
		} else {
			key = canon
		}
	}
	return key
}

// receiverKey identifies the ring object a call operates on: the method
// receiver, or the first argument for annotated free functions. Keys are
// rooted (address-of and indexing stripped) so `&p.rings[w]` and a slice
// of the same rings compare equal — per-element identity is deliberately
// folded into the container: one goroutine touching both ends of any ring
// in the same pool is still the pattern the contract forbids.
func receiverKey(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	var recv ast.Expr
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && pass.TypesInfo.Selections[sel] != nil {
		recv = sel.X // method call: sel.X is the receiver
	} else if len(call.Args) > 0 {
		recv = call.Args[0]
	} else {
		return "", false
	}
	if root := rootString(recv); root != "" {
		return root, true
	}
	return exprString(recv), true
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// escapedTransfer checks for //unison:owner transfer [reason] on the
// line of pos (or standing alone above it); missing is true when the
// transfer carries no reason.
func escapedTransfer(pass *analysis.Pass, pos token.Pos) (ok, missing bool) {
	for _, d := range pass.Directives.At(pos, "owner") {
		rest := strings.TrimSpace(d.Args)
		first, reason, _ := strings.Cut(rest, " ")
		if first != "transfer" {
			continue
		}
		if strings.TrimSpace(reason) == "" {
			return true, true
		}
		return true, false
	}
	return false, false
}

func sideName(s ownerSide) string {
	if s == sideProducer {
		return "producer"
	}
	return "consumer"
}

// word returns the first space-delimited token of s.
func word(s string) string {
	w, _, _ := strings.Cut(strings.TrimSpace(s), " ")
	return w
}
