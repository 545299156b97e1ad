package lint

import (
	"go/ast"
	"go/token"
	"sort"

	"osdp/internal/lint/analysis"
)

// ChargeBeforeNoise enforces the charge-ordering contract from
// DESIGN.md "Budget control plane": on the query path, every ε-bearing
// release is charged to an accountant BEFORE any noise is sampled, so
// an exhausted budget can never leak a partial answer and a crash
// between charge and answer errs toward over-counting spend.
//
// Two syntactic rules approximate the CFG-dominance property:
//
//   - internal/core: a Session method that touches the session's noise
//     source (any use of the recv.src field, or a direct noise.<Sampler>
//     call) must make a charge call — charge/Charge/Spend — lexically
//     before the first such touch. Mechanism primitives that take a
//     noise.Source parameter are exempt: their caller owns the charge.
//
//   - internal/server: a call to a session query method
//     (.sess.Histogram and friends) outside a function literal, a call
//     of a function literal that contains one, and a call of the
//     conventional compiled-mechanism closure `run` must all be
//     lexically preceded by a .Charge( call in the same function.
//     Function-literal BODIES are skipped at definition sites — the
//     charge is required where the closure is invoked, not built.
//
//   - internal/server, admission ordering: in a function that acquires
//     an admission slot (.adm.acquire or .acquire), every .Charge(
//     must come lexically AFTER the first acquire. Charging before
//     admission would bill requests that are then rejected or
//     cancelled while queued — the accounting the admission layer
//     exists to prevent (DESIGN.md "Admission control").
//
// Lexical precedence (not true dominance) is deliberate: the real code
// guards the ledger charge behind "if Ledger != nil" for ledger-less
// servers, which strict dominance would flag.
var ChargeBeforeNoise = &analysis.Analyzer{
	Name: "chargebeforenoise",
	Doc:  "on core/server query paths, an accountant/ledger charge must precede noise sampling and private releases",
	Run:  runChargeBeforeNoise,
}

// noiseSamplers are the sampling entry points of internal/noise.
var noiseSamplers = map[string]bool{
	"Laplace": true, "LaplaceVec": true,
	"OneSidedLaplace": true, "OneSidedLaplaceVec": true,
	"Bernoulli": true, "Geometric": true, "Binomial": true,
	"Gaussian": true, "Exponential": true, "KeepGap": true,
	"KeepGapFrom": true, "FillUniform": true,
}

// sessionQueryMethods are the noise-drawing methods of core.Session as
// the serving layer calls them.
var sessionQueryMethods = map[string]bool{
	"Histogram": true, "IntHistogram": true, "Count": true,
	"Quantile": true, "Sample": true, "Workload": true,
}

// chargeNames are the calls that admit ε against a budget.
var chargeNames = map[string]bool{"charge": true, "Charge": true, "Spend": true}

func runChargeBeforeNoise(pass *analysis.Pass) error {
	switch {
	case pass.PathIn("osdp/internal/core"):
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok {
					checkCoreFunc(pass, d)
				}
			}
		}
	case pass.PathIn("osdp/internal/server"):
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok {
					checkServerFunc(pass, d)
				}
			}
		}
	}
	return nil
}

// takesNoiseSource reports whether the function receives a
// noise.Source parameter — the mark of a mechanism primitive whose
// caller owns the charge.
func takesNoiseSource(d *ast.FuncDecl) bool {
	if d.Type.Params == nil {
		return false
	}
	for _, field := range d.Type.Params.List {
		chain := selectorChain(field.Type)
		if len(chain) == 2 && chain[0] == "noise" && chain[1] == "Source" {
			return true
		}
	}
	return false
}

// checkCoreFunc applies the core rule to one Session method.
func checkCoreFunc(pass *analysis.Pass, d *ast.FuncDecl) {
	recv, typ, _, isMethod := receiverName(d)
	if !isMethod || typ != "Session" || d.Body == nil || takesNoiseSource(d) {
		return
	}
	firstCharge := token.NoPos
	firstNoise := token.NoPos
	ast.Inspect(d.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			qual, name := calleeName(x)
			if chargeNames[name] && (firstCharge == token.NoPos || x.Pos() < firstCharge) {
				firstCharge = x.Pos()
			}
			if qual == "noise" && noiseSamplers[name] && (firstNoise == token.NoPos || x.Pos() < firstNoise) {
				firstNoise = x.Pos()
			}
		case *ast.SelectorExpr:
			// Touching the session's noise source (s.src) hands out
			// sampling capability — estimator Fit calls, mechanism
			// constructors, direct draws all receive it this way.
			if id, ok := x.X.(*ast.Ident); ok && recv != "" && id.Name == recv && x.Sel.Name == "src" {
				if firstNoise == token.NoPos || x.Pos() < firstNoise {
					firstNoise = x.Pos()
				}
			}
		}
		return true
	})
	if firstNoise == token.NoPos {
		return
	}
	if firstCharge == token.NoPos || firstCharge > firstNoise {
		pass.Reportf(firstNoise, "Session.%s reaches the noise source before charging the accountant; charge ε first (DESIGN.md \"Budget control plane\")", d.Name.Name)
	}
}

// checkServerFunc applies the server rule to one function.
func checkServerFunc(pass *analysis.Pass, d *ast.FuncDecl) {
	if d.Body == nil {
		return
	}
	// Function-literal interiors are deferred execution: excluded from
	// the linear scan, except that CALLING a literal inline makes its
	// releases happen here.
	lits := map[*ast.FuncLit]bool{} // lit -> contains a session query call
	ast.Inspect(d.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits[lit] = containsSessionQuery(lit.Body)
		}
		return true
	})
	inLit := func(pos token.Pos) bool {
		for lit := range lits {
			if lit.Body.Pos() <= pos && pos <= lit.Body.End() {
				return true
			}
		}
		return false
	}

	const (
		evCharge = iota
		evRelease
		evAdmit
	)
	type event struct {
		pos  token.Pos
		kind int
		what string
	}
	var events []event
	ast.Inspect(d.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || inLit(call.Pos()) {
			return true
		}
		qual, name := calleeName(call)
		switch {
		case chargeNames[name]:
			events = append(events, event{pos: call.Pos(), kind: evCharge})
		case name == "acquire":
			// The admission controller's slot acquisition (s.adm.acquire
			// by convention) starts the admitted region.
			events = append(events, event{pos: call.Pos(), kind: evAdmit})
		case qual == "sess" && sessionQueryMethods[name]:
			events = append(events, event{pos: call.Pos(), kind: evRelease, what: "session query " + name})
		case name == "run" && qual == "":
			// The compiled-mechanism closure is by convention bound to
			// `run`; invoking it executes charge-gated sampling.
			if _, isIdent := call.Fun.(*ast.Ident); isIdent {
				events = append(events, event{pos: call.Pos(), kind: evRelease, what: "compiled mechanism run()"})
			}
		default:
			if lit, isLit := call.Fun.(*ast.FuncLit); isLit && lits[lit] {
				events = append(events, event{pos: call.Pos(), kind: evRelease, what: "inline mechanism closure"})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	admits := false
	for _, e := range events {
		admits = admits || e.kind == evAdmit
	}
	charged, admitted := false, false
	for _, e := range events {
		switch e.kind {
		case evAdmit:
			admitted = true
		case evCharge:
			if admits && !admitted {
				pass.Reportf(e.pos, "ledger/accountant charge executes before admission acquire in %s; admit first so a rejected or cancelled-while-queued request never charges ε (DESIGN.md \"Admission control\")", d.Name.Name)
			}
			charged = true
		case evRelease:
			if !charged {
				pass.Reportf(e.pos, "%s executes before any ledger/accountant charge in %s; charge ε first (DESIGN.md \"Budget control plane\")", e.what, d.Name.Name)
			}
		}
	}
}

// containsSessionQuery reports whether the block calls a session query
// method.
func containsSessionQuery(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if qual, name := calleeName(call); qual == "sess" && sessionQueryMethods[name] {
				found = true
			}
		}
		return !found
	})
	return found
}
