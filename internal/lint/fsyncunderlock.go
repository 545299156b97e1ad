package lint

import (
	"go/ast"
	"strings"

	"osdp/internal/lint/analysis"
)

// FsyncUnderLock enforces the group-commit lesson from DESIGN.md
// "Journal": in the durable planes — internal/journal and its clients
// internal/ledger and internal/audit — no blocking file I/O may run
// while a mutex is held. Writers admit under the lock, append to the
// journal, release, and wait for its committer; an fsync under the
// mutex re-serialises every concurrent charge behind the disk.
//
// The check is intra-procedural with an intra-package closure: a
// function "does I/O" if it calls a file verb (Sync, Write, Truncate,
// Rename, ...) directly or calls a same-package function that does.
// Within each function, a linear walk tracks mutex state — `<x>.mu
// .Lock()` raises it, `.Unlock()` lowers it, `defer ....Unlock()`
// pins it to the end of the function — and any I/O-bearing call made
// while the mutex is held is reported. An Unlock inside a branch that
// ends in return (the bail-out idiom) does not lower the outer path's
// state. Function-literal bodies are analysed separately with a fresh
// lock state: goroutine bodies do not inherit the spawner's lock.
var FsyncUnderLock = &analysis.Analyzer{
	Name: "fsyncunderlock",
	Doc:  "no file Write/Sync (or call reaching one) while a mutex is held in internal/journal, internal/ledger and internal/audit",
	Run:  runFsyncUnderLock,
}

// ioVerbs are the blocking file operations of the durable planes.
var ioVerbs = map[string]bool{
	"Sync": true, "Write": true, "WriteString": true, "WriteFile": true,
	"Truncate": true, "Rename": true, "ReadFile": true, "OpenFile": true,
	"Create": true, "MkdirAll": true, "Remove": true,
}

func runFsyncUnderLock(pass *analysis.Pass) error {
	if !pass.PathIn("osdp/internal/journal", "osdp/internal/ledger", "osdp/internal/audit") {
		return nil
	}
	doesIO := ioClosure(pass.Files)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass, doesIO: doesIO}
			w.walkBody(d.Body, lockState{})
		}
	}
	return nil
}

// mutexChain reports whether a Lock/Unlock call's receiver chain names
// a mutex ("mu" component, or a name ending in "Mu"/"Mutex").
func mutexChain(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	for _, part := range selectorChain(sel.X) {
		lower := strings.ToLower(part)
		if lower == "mu" || strings.HasSuffix(lower, "mu") || strings.HasSuffix(lower, "mutex") || strings.HasSuffix(lower, "lock") {
			return true
		}
	}
	return false
}

// directIO reports whether the call is a file verb itself, excluding
// obvious in-memory writers (append to byte slices is not a call;
// buffered builders do not appear in these packages).
func directIO(call *ast.CallExpr) (string, bool) {
	_, name := calleeName(call)
	if ioVerbs[name] {
		return name, true
	}
	return "", false
}

// ioClosure computes the set of same-package function names that
// transitively perform file I/O. Names are bare identifiers (methods
// and functions share the namespace), which is precise enough inside
// these two small packages.
func ioClosure(files []*ast.File) map[string]bool {
	bodies := map[string]*ast.BlockStmt{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Body != nil {
				bodies[d.Name.Name] = d.Body
			}
		}
	}
	doesIO := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for name, body := range bodies {
			if doesIO[name] {
				continue
			}
			found := false
			ast.Inspect(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, io := directIO(call); io {
					found = true
					return false
				}
				if _, callee := calleeName(call); doesIO[callee] {
					found = true
					return false
				}
				return true
			})
			if found {
				doesIO[name] = true
				changed = true
			}
		}
	}
	return doesIO
}

// lockState is the mutex accounting at one point of the linear walk.
type lockState struct {
	depth    int  // Lock minus Unlock on the current path
	deferred bool // a defer ...Unlock() pins the mutex to function end
}

func (s lockState) held() bool { return s.depth > 0 || s.deferred }

// lockWalker performs the per-function scan.
type lockWalker struct {
	pass   *analysis.Pass
	doesIO map[string]bool
}

// walkBody scans statements in order, returning the state at the end
// of the block.
func (w *lockWalker) walkBody(body *ast.BlockStmt, st lockState) lockState {
	for _, stmt := range body.List {
		st = w.walkStmt(stmt, st)
	}
	return st
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, st lockState) lockState {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return w.walkExpr(s.X, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			st = w.walkExpr(e, st)
		}
		return st
	case *ast.DeferStmt:
		if call := s.Call; mutexChain(call) {
			if _, name := calleeName(call); name == "Unlock" || name == "RUnlock" {
				if st.depth > 0 {
					st.depth--
				}
				st.deferred = true
				return st
			}
		}
		// Deferred I/O runs at return, after explicit Unlocks — only a
		// deferred unlock still pins it, which held() covers.
		return st
	case *ast.GoStmt:
		// The goroutine body runs with its own (empty) lock state.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkBody(lit.Body, lockState{})
		}
		return st
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
		}
		st = w.walkExpr(s.Cond, st)
		branch := w.walkBody(s.Body, st)
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				w.walkBody(e, st)
			case *ast.IfStmt:
				w.walkStmt(e, st)
			}
		}
		// A branch that exits the function does not change the
		// fall-through path's lock state (the bail-out idiom:
		// `if bad { mu.Unlock(); return }`).
		if endsInExit(s.Body) {
			return st
		}
		return branch
	case *ast.ForStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			st = w.walkExpr(s.Cond, st)
		}
		return w.walkBody(s.Body, st)
	case *ast.RangeStmt:
		st = w.walkExpr(s.X, st)
		return w.walkBody(s.Body, st)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			st = w.walkExpr(s.Tag, st)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				inner := st
				for _, cs := range cc.Body {
					inner = w.walkStmt(cs, inner)
				}
			}
		}
		return st
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				inner := st
				for _, cs := range cc.Body {
					inner = w.walkStmt(cs, inner)
				}
			}
		}
		return st
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := st
				for _, cs := range cc.Body {
					inner = w.walkStmt(cs, inner)
				}
			}
		}
		return st
	case *ast.BlockStmt:
		return w.walkBody(s, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			st = w.walkExpr(e, st)
		}
		return st
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.BranchStmt, *ast.LabeledStmt, *ast.EmptyStmt:
		return st
	}
	return st
}

// walkExpr scans one expression for lock transitions and I/O calls.
func (w *lockWalker) walkExpr(expr ast.Expr, st lockState) lockState {
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				// Analysed separately when invoked; skip here.
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			_, name := calleeName(call)
			if mutexChain(call) {
				switch name {
				case "Lock", "RLock":
					st.depth++
				case "Unlock", "RUnlock":
					if st.depth > 0 {
						st.depth--
					}
				}
				return true
			}
			if st.held() {
				if verb, io := directIO(call); io {
					w.pass.Reportf(call.Pos(), "file %s while a mutex is held: move durable I/O outside the lock (group-commit discipline, DESIGN.md \"Journal\")", verb)
				} else if w.doesIO[name] {
					w.pass.Reportf(call.Pos(), "call to %s (which performs file I/O) while a mutex is held: move durable I/O outside the lock (DESIGN.md \"Journal\")", name)
				}
			}
			return true
		})
	}
	walk(expr)
	return st
}

// endsInExit reports whether the block's last statement leaves the
// function (return or panic).
func endsInExit(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
