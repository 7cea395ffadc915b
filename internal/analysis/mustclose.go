package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// MustClose tracks the engine's closeable handles — the root-package
// System, exec.Parallel (which owns worker goroutines), persist.WAL (an
// open segment file), and os.File — from their constructor call to the
// function exits. A handle that stays local to
// the function must be closed on every path: a deferred Close, or a
// Close preceding each return. Handles that escape (returned, stored,
// passed to another function, captured by a closure) transfer
// ownership and are the caller's problem.
//
// The per-return check is positional (a Close anywhere between the
// constructor and the return satisfies it), which is exactly the
// granularity of the classic bug it exists for: an early error return
// added between Open and Close. Returns inside the constructor's own
// `if err != nil` guard are exempt — there is no handle to close when
// the constructor failed.
var MustClose = &Analyzer{
	Name: "mustclose",
	Doc:  "System/Parallel/WAL/File handles must be closed on every path or escape ownership",
	Run:  runMustClose,
}

// closeableTypes lists the handle types (as path suffixes under the
// module root) and the methods that release them. System.Close is
// idempotent and safe after Flush, so a deferred Close is always
// correct; Parallel is torn down by Flush (deliver) or Stop (discard).
var closeableTypes = []struct {
	suffix  string
	release []string
}{
	{".System", []string{"Close"}},
	{"/internal/exec.Parallel", []string{"Stop", "Flush"}},
	{"/internal/persist.WAL", []string{"Close"}},
}

func runMustClose(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMustClose(pass, fd)
			}
		}
	}
	return nil
}

// releaseMethods returns the methods that release a tracked handle of
// type t, or nil if t is not tracked.
func releaseMethods(pass *Pass, t types.Type) []string {
	path := NamedTypePath(t)
	if path == "os.File" {
		return []string{"Close"}
	}
	for _, ct := range closeableTypes {
		if path == pass.ModuleRoot+ct.suffix {
			return ct.release
		}
	}
	return nil
}

// handle is one tracked constructor result within a function.
type handle struct {
	obj     types.Object // the handle variable
	errObj  types.Object // the err result of the same :=, if any
	release []string     // methods that release it
	declPos token.Pos

	escapes  bool
	deferred bool
	closes   []token.Pos
}

// checkMustClose analyzes one function for leaked handles.
func checkMustClose(pass *Pass, fd *ast.FuncDecl) {
	var handles []*handle
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || IsConversion(pass.Info, call) {
			return true
		}
		var h *handle
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			// The handle itself must be a fresh definition; the err
			// result may rebind an existing variable (tmp, err := ...),
			// so resolve it through Defs or Uses.
			if obj := pass.Info.Defs[id]; obj != nil {
				if rel := releaseMethods(pass, obj.Type()); rel != nil {
					h = &handle{obj: obj, release: rel, declPos: as.Pos()}
					continue
				}
			}
			if obj := objectOf(pass, id); obj != nil && h != nil && isErrorType(obj.Type()) {
				h.errObj = obj
			}
		}
		if h != nil {
			handles = append(handles, h)
		}
		return true
	})
	if len(handles) == 0 {
		return
	}
	for _, h := range handles {
		classifyHandleUses(pass, fd, h)
	}
	checkHandleExits(pass, fd, handles)
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// walkStack is ast.Inspect with an ancestor stack (innermost last).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// classifyHandleUses walks every use of h.obj, recording closes and
// ownership escapes.
func classifyHandleUses(pass *Pass, fd *ast.FuncDecl, h *handle) {
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || pass.Info.Uses[id] != h.obj {
			return
		}
		for _, a := range stack {
			if _, ok := a.(*ast.FuncLit); ok {
				h.escapes = true // captured; the closure owns a reference
				return
			}
		}
		if len(stack) == 0 {
			return
		}
		switch p := stack[len(stack)-1].(type) {
		case *ast.SelectorExpr:
			if p.X != id {
				return // x used as a qualifier elsewhere; not this object
			}
			// x.Close() as a call is a close; x.Method(...) is neutral;
			// a method value (x.Close passed around) escapes.
			if len(stack) >= 2 {
				if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == p {
					if !slices.Contains(h.release, p.Sel.Name) {
						return
					}
					if len(stack) >= 3 {
						if _, ok := stack[len(stack)-3].(*ast.DeferStmt); ok {
							h.deferred = true
							return
						}
					}
					h.closes = append(h.closes, call.Pos())
					return
				}
			}
			h.escapes = true
		case *ast.BinaryExpr, *ast.IfStmt, *ast.SwitchStmt, *ast.ForStmt:
			// comparisons and conditions don't move ownership
		case *ast.AssignStmt:
			h.escapes = true // stored somewhere, or rebound
		default:
			// call argument, return value, composite literal, channel
			// send, &x, index — all transfer ownership; unknown contexts
			// are treated the same to stay quiet rather than wrong.
			h.escapes = true
		}
	})
}

// checkHandleExits flags returns (and the fall-through exit) that a
// local, never-deferred handle can leak through.
func checkHandleExits(pass *Pass, fd *ast.FuncDecl, handles []*handle) {
	live := handles[:0]
	for _, h := range handles {
		if !h.escapes && !h.deferred {
			live = append(live, h)
		}
	}
	if len(live) == 0 {
		return
	}
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, a := range stack {
			if _, ok := a.(*ast.FuncLit); ok {
				return
			}
		}
		for _, h := range live {
			if ret.Pos() < h.declPos || errGuarded(pass, stack, h) {
				continue
			}
			closed := false
			for _, c := range h.closes {
				if c > h.declPos && c < ret.Pos() {
					closed = true
				}
			}
			if !closed {
				pass.Reportf(ret.Pos(), "return may leak %s opened at line %d without %s (defer the release or release on this path)",
					h.obj.Name(), pass.Fset.Position(h.declPos).Line, releaseList(h))
			}
		}
	})
	// Fall-through exit of a function whose body does not end in a
	// terminating statement.
	if len(fd.Body.List) > 0 {
		switch fd.Body.List[len(fd.Body.List)-1].(type) {
		case *ast.ReturnStmt:
			return
		}
	}
	for _, h := range live {
		if len(h.closes) == 0 {
			pass.Reportf(h.declPos, "%s is never released in %s (defer %s.%s() after the error check)",
				h.obj.Name(), fd.Name.Name, h.obj.Name(), h.release[0])
		}
	}
}

// releaseList renders a handle's release-method set for diagnostics.
func releaseList(h *handle) string {
	return strings.Join(h.release, "/")
}

// errGuarded reports whether the return sits inside an `if err != nil`
// guard testing the error from h's own constructor call — the one path
// where there is no handle to close.
func errGuarded(pass *Pass, stack []ast.Node, h *handle) bool {
	if h.errObj == nil {
		return false
	}
	for _, a := range stack {
		ifs, ok := a.(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == h.errObj {
				found = true
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
