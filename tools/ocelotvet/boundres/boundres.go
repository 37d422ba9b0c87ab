// Package boundres enforces the PR 2 lesson: relative error bounds are
// resolved to absolute ones in exactly one place, sz.Config.AbsoluteBound.
// Ad-hoc `eb * valueRange` arithmetic scattered through callers is how the
// original divergence bug happened — two resolutions disagreeing on the
// degenerate-range fallback (NaN/Inf/zero-range fields) silently produce
// different quantizers for "the same" bound.
//
// The checker flags, anywhere outside the AbsoluteBound resolver itself:
//
//   - multiplications where one operand is named like a relative error
//     bound (eb, relEB, ErrorBound, ...) and the other like a value range
//     (rng, valueRange, ...);
//   - multiplications by the raw `.Range` of metrics.ComputeRange(...),
//     inline or through a variable assigned from it in the same function,
//     whatever that variable is called. That range has no degenerate-range
//     fallback: one +Inf value makes it infinite. Resolve through
//     sz.ValueRange or sz.Config.AbsoluteBound instead.
package boundres

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"ocelot/tools/ocelotvet/internal/analysis"
)

// Analyzer is the boundres checker.
var Analyzer = &analysis.Analyzer{
	Name: "boundres",
	Doc:  "flags ad-hoc relative-to-absolute error-bound arithmetic outside sz.Config.AbsoluteBound (the PR 2 divergence class)",
	Run:  run,
}

// ebRe matches operand names that denote a relative error bound.
var ebRe = regexp.MustCompile(`(?i)^(rel)?(eb|errbound|errorbound)$`)

// rngRe matches operand names that denote a value range.
var rngRe = regexp.MustCompile(`(?i)^(rng|range|valuerange|valrange|vrange|datarange)$`)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The resolver itself is the one legitimate site.
			if fd.Name.Name == "AbsoluteBound" {
				continue
			}
			raw := rawRangeVars(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || be.Op != token.MUL {
					return true
				}
				xn, yn := operandName(be.X), operandName(be.Y)
				switch {
				case (ebRe.MatchString(xn) && rngRe.MatchString(yn)) ||
					(ebRe.MatchString(yn) && rngRe.MatchString(xn)):
					pass.Reportf(be.Pos(), "ad-hoc relative-to-absolute bound arithmetic (%s * %s); resolve through sz.Config.AbsoluteBound so degenerate ranges use one fallback", xn, yn)
				case raw.scales(pass, be.X) || raw.scales(pass, be.Y):
					pass.Reportf(be.Pos(), "bound scaled by the raw metrics.ComputeRange(...).Range, which has no degenerate-range fallback; use sz.ValueRange or sz.Config.AbsoluteBound")
				}
				return true
			})
		}
	}
	return nil
}

// rangeVars is the set of variables a function assigns from a raw
// metrics.ComputeRange(...).Range.
type rangeVars map[types.Object]bool

// rawRangeVars collects the variables in body assigned (by :=, = or a var
// declaration) from a raw metrics.ComputeRange(...).Range.
func rawRangeVars(pass *analysis.Pass, body *ast.BlockStmt) rangeVars {
	vars := rangeVars{}
	record := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || !isRawRange(pass, rhs) {
			return
		}
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			vars[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					record(n.Lhs[i], rhs)
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, rhs := range n.Values {
					record(n.Names[i], rhs)
				}
			}
		}
		return true
	})
	return vars
}

// scales reports whether the multiplication operand e is a raw range: the
// selector itself, or a variable assigned from it, through parens and
// conversions.
func (v rangeVars) scales(pass *analysis.Pass, e ast.Expr) bool {
	e = unconvert(pass, e)
	if id, ok := e.(*ast.Ident); ok {
		return v[pass.TypesInfo.ObjectOf(id)]
	}
	return isRawRange(pass, e)
}

// isRawRange reports whether e is `<call>.Range` where the call is to a
// function ComputeRange of a package named metrics.
func isRawRange(pass *analysis.Pass, e ast.Expr) bool {
	sel, ok := unconvert(pass, e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Range" {
		return false
	}
	call, ok := sel.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	var fn *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn = f
	case *ast.SelectorExpr:
		fn = f.Sel
	default:
		return false
	}
	obj, ok := pass.TypesInfo.Uses[fn].(*types.Func)
	return ok && obj.Name() == "ComputeRange" && obj.Pkg() != nil && obj.Pkg().Name() == "metrics"
}

// unconvert strips parens and type conversions from e.
func unconvert(pass *analysis.Pass, e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			return e
		default:
			return e
		}
	}
}

// operandName extracts the final identifier of an operand: the ident
// itself, the selected field (cfg.ErrorBound), or through parens and
// conversions.
func operandName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.ParenExpr:
		return operandName(e.X)
	case *ast.CallExpr:
		if len(e.Args) == 1 {
			// conversions like float64(rng)
			return operandName(e.Args[0])
		}
	}
	return ""
}
