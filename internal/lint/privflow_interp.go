package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// maxPathHops caps taint-path length: beyond this the chain stops growing
// and the existing prefix (which always starts at the source) is reported.
const maxPathHops = 12

// srcTaint records that a value derives from one annotated source, with the
// function chain that carried it there. Values are immutable once built:
// extending a path always allocates a new srcTaint.
type srcTaint struct {
	ann *pfAnnotation
	// path is the hop chain from the source read to the current position.
	path []PathHop
	// viaSink marks taint that already crossed a sink boundary (was
	// returned from a sink function). Such taint was reported at that first
	// crossing and is not re-reported by downstream relaying sinks.
	viaSink bool
}

// extend returns s with one more hop appended (capped at maxPathHops).
func (s *srcTaint) extend(hop PathHop) *srcTaint {
	if len(s.path) >= maxPathHops {
		return s
	}
	path := make([]PathHop, len(s.path), len(s.path)+1)
	copy(path, s.path)
	return &srcTaint{ann: s.ann, path: append(path, hop), viaSink: s.viaSink}
}

// taintVal is the abstract value of the analysis: which function inputs
// (receiver + parameters, as a bitmask) and which annotated sources flow
// into a value. The zero value means untainted.
type taintVal struct {
	inputs uint64
	srcs   []*srcTaint
}

func (t taintVal) isZero() bool { return t.inputs == 0 && len(t.srcs) == 0 }

// hasSrc reports whether an equivalent source taint (same annotation and
// sink-crossing state) is already present; paths are frozen at first
// discovery, which keeps the fixpoint finite.
func (t taintVal) hasSrc(s *srcTaint) bool {
	for _, have := range t.srcs {
		if have.ann == s.ann && have.viaSink == s.viaSink {
			return true
		}
	}
	return false
}

// union merges two taint values into a fresh one; the srcTaint pointers are
// shared (they are immutable) but the slice never aliases the inputs.
func (t taintVal) union(o taintVal) (taintVal, bool) {
	changed := false
	out := taintVal{inputs: t.inputs, srcs: t.srcs}
	if o.inputs&^t.inputs != 0 {
		out.inputs |= o.inputs
		changed = true
	}
	for _, s := range o.srcs {
		if !out.hasSrc(s) {
			out.srcs = append(out.srcs[:len(out.srcs):len(out.srcs)], s)
			changed = true
		}
	}
	return out, changed
}

// summary is a function's interprocedural contract: for each result, which
// inputs and which sources flow into it.
type summary struct {
	results []taintVal
}

// mergeResult folds one observed return taint into result r. When the
// function is a sink, source taints are recorded as having crossed the
// boundary (viaSink) with the return site as the final hop, so callers
// relaying them do not re-report.
func (s *summary) mergeResult(r int, t taintVal, sink bool, hop PathHop) bool {
	if r >= len(s.results) {
		return false
	}
	if sink {
		marked := taintVal{inputs: t.inputs}
		for _, src := range t.srcs {
			crossed := src.extend(hop)
			marked.srcs = append(marked.srcs, &srcTaint{ann: crossed.ann, path: crossed.path, viaSink: true})
		}
		t = marked
	}
	merged, changed := s.results[r].union(t)
	if changed {
		s.results[r] = merged
	}
	return changed
}

// interp evaluates one function body over the abstract taint domain.
type interp struct {
	a    *pf
	fn   *pfFunc
	info *types.Info

	state        map[types.Object]taintVal
	localChanged bool

	report   bool
	reported map[string]bool
}

func (in *interp) pos(p token.Pos) token.Position { return in.a.fset.Position(p) }

func (in *interp) hop(p token.Pos) PathHop {
	return PathHop{Func: in.fn.name, Pos: in.pos(p)}
}

func (in *interp) walkBody() {
	in.walkStmt(in.fn.decl.Body)
}

// mergeState weakly updates a variable's taint.
func (in *interp) mergeState(obj types.Object, t taintVal) {
	if obj == nil || t.isZero() {
		return
	}
	merged, changed := in.state[obj].union(t)
	if changed {
		in.state[obj] = merged
		in.localChanged = true
	}
}

// mergeFieldTaint records source taint stored into a struct field, making
// it visible to every other function reading that field. Only source
// taints transfer globally; input bits are meaningless across functions.
func (in *interp) mergeFieldTaint(field *types.Var, t taintVal, hop PathHop) {
	if len(t.srcs) == 0 {
		return
	}
	ext := taintVal{}
	for _, s := range t.srcs {
		ext.srcs = append(ext.srcs, s.extend(hop))
	}
	merged, changed := in.a.fieldTaint[field].union(ext)
	if changed {
		in.a.fieldTaint[field] = merged
		in.a.changed = true
		in.localChanged = true
	}
}

// ---- statements ----

func (in *interp) walkStmtList(list []ast.Stmt) {
	for _, s := range list {
		in.walkStmt(s)
	}
}

func (in *interp) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		in.walkStmtList(st.List)
	case *ast.ExprStmt:
		in.evalExpr(st.X)
	case *ast.AssignStmt:
		in.walkAssign(st)
	case *ast.DeclStmt:
		in.walkDecl(st)
	case *ast.ReturnStmt:
		in.walkReturn(st)
	case *ast.IfStmt:
		in.walkStmt(st.Init)
		in.evalExpr(st.Cond)
		in.walkStmt(st.Body)
		in.walkStmt(st.Else)
	case *ast.ForStmt:
		in.walkStmt(st.Init)
		if st.Cond != nil {
			in.evalExpr(st.Cond)
		}
		in.walkStmt(st.Body)
		in.walkStmt(st.Post)
	case *ast.RangeStmt:
		in.walkRange(st)
	case *ast.SwitchStmt:
		in.walkStmt(st.Init)
		if st.Tag != nil {
			in.evalExpr(st.Tag)
		}
		in.walkStmt(st.Body)
	case *ast.TypeSwitchStmt:
		in.walkTypeSwitch(st)
	case *ast.CaseClause:
		for _, e := range st.List {
			in.evalExpr(e)
		}
		in.walkStmtList(st.Body)
	case *ast.SelectStmt:
		in.walkStmt(st.Body)
	case *ast.CommClause:
		in.walkStmt(st.Comm)
		in.walkStmtList(st.Body)
	case *ast.SendStmt:
		t := in.evalExpr(st.Value)
		in.evalExpr(st.Chan)
		in.mergeRootOf(st.Chan, t)
	case *ast.DeferStmt:
		in.evalExpr(st.Call)
	case *ast.GoStmt:
		in.evalExpr(st.Call)
	case *ast.LabeledStmt:
		in.walkStmt(st.Stmt)
	case *ast.IncDecStmt:
		in.evalExpr(st.X)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

func (in *interp) walkDecl(st *ast.DeclStmt) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) == 0 {
			continue
		}
		taints := in.evalRHS(vs.Values, len(vs.Names))
		for i, name := range vs.Names {
			if name.Name != "_" && i < len(taints) {
				in.mergeState(in.info.Defs[name], taints[i])
			}
		}
	}
}

func (in *interp) walkAssign(st *ast.AssignStmt) {
	taints := in.evalRHS(st.Rhs, len(st.Lhs))
	for i, lhs := range st.Lhs {
		if i < len(taints) {
			in.assign(lhs, taints[i])
		}
	}
}

// evalRHS evaluates an assignment's right-hand side into n taints,
// handling multi-result calls and the comma-ok forms.
func (in *interp) evalRHS(rhs []ast.Expr, n int) []taintVal {
	if len(rhs) == 1 && n > 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			out := in.evalCall(call)
			for len(out) < n {
				out = append(out, taintVal{})
			}
			return out
		}
		// v, ok := m[k] / x.(T) / <-ch: the value carries the operand's
		// taint, the bool is clean.
		out := make([]taintVal, n)
		out[0] = in.evalExpr(rhs[0])
		return out
	}
	out := make([]taintVal, 0, len(rhs))
	for _, e := range rhs {
		out = append(out, in.evalExpr(e))
	}
	return out
}

// assign performs a weak update of one assignment target.
func (in *interp) assign(lhs ast.Expr, t taintVal) {
	in.sinkCheckPtrWrite(lhs, t)
	in.storeTarget(lhs, t)
}

// storeTarget walks an lvalue down to the variables and fields it can
// mutate, merging taint into each (weak update: container and element
// share one abstract value).
func (in *interp) storeTarget(e ast.Expr, t taintVal) {
	switch l := ast.Unparen(e).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := in.info.Defs[l]
		if obj == nil {
			obj = in.info.Uses[l]
		}
		in.mergeState(obj, t)
	case *ast.SelectorExpr:
		if sel, ok := in.info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			if field, ok := sel.Obj().(*types.Var); ok {
				in.mergeFieldTaint(field, t, in.hop(l.Pos()))
			}
		}
		in.storeTarget(l.X, t)
	case *ast.StarExpr:
		in.storeTarget(l.X, t)
	case *ast.IndexExpr:
		in.storeTarget(l.X, t)
	case *ast.SliceExpr:
		in.storeTarget(l.X, t)
	}
}

// mergeRootOf merges taint into the rooted variable of an expression
// (used for channel sends and reference-argument writes).
func (in *interp) mergeRootOf(e ast.Expr, t taintVal) {
	if t.isZero() {
		return
	}
	in.storeTarget(e, t)
}

func (in *interp) walkRange(st *ast.RangeStmt) {
	t := in.evalExpr(st.X)
	if st.Key != nil {
		in.assign(st.Key, t)
	}
	if st.Value != nil {
		in.assign(st.Value, t)
	}
	in.walkStmt(st.Body)
}

func (in *interp) walkTypeSwitch(st *ast.TypeSwitchStmt) {
	in.walkStmt(st.Init)
	var operand taintVal
	switch as := st.Assign.(type) {
	case *ast.AssignStmt:
		if len(as.Rhs) == 1 {
			if ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr); ok {
				operand = in.evalExpr(ta.X)
			}
		}
	case *ast.ExprStmt:
		if ta, ok := ast.Unparen(as.X).(*ast.TypeAssertExpr); ok {
			operand = in.evalExpr(ta.X)
		}
	}
	for _, clause := range st.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		// The per-clause binding of `x := y.(type)` is an implicit object.
		if obj := in.info.Implicits[cc]; obj != nil {
			in.mergeState(obj, operand)
		}
		in.walkStmtList(cc.Body)
	}
}

// ---- returns and sink checks ----

func (in *interp) walkReturn(st *ast.ReturnStmt) {
	sig := in.fn.obj.Type().(*types.Signature)
	nres := sig.Results().Len()
	var taints []taintVal
	switch {
	case len(st.Results) == 0:
		// Naked return: read the named result variables.
		taints = make([]taintVal, 0, nres)
		for _, field := range resultFields(in.fn.decl) {
			for _, name := range field.Names {
				taints = append(taints, in.state[in.info.Defs[name]])
			}
		}
	default:
		taints = in.evalRHS(st.Results, nres)
	}
	hop := in.hop(st.Pos())
	for r, t := range taints {
		if r >= nres {
			break
		}
		if in.report && in.fn.sink != nil && !isErrorType(sig.Results().At(r).Type()) {
			in.reportSinkFlow(st.Pos(), t, "returned from")
		}
		if in.fn.sum.mergeResult(r, t, in.fn.sink != nil, hop) {
			in.a.changed = true
			in.localChanged = true
		}
	}
}

func resultFields(fd *ast.FuncDecl) []*ast.Field {
	if fd.Type.Results == nil {
		return nil
	}
	return fd.Type.Results.List
}

// Error results are exempt from sink checks (isErrorType in lint.go):
// error strings are assumed not to embed private payloads, a documented
// approximation that keeps fmt.Errorf wrapping from drowning the signal.

// sinkCheckPtrWrite flags tainted writes through a sink function's pointer
// parameters (*reply = v, reply.Field = v) — the RPC reply path.
func (in *interp) sinkCheckPtrWrite(lhs ast.Expr, t taintVal) {
	if !in.report || in.fn.sink == nil || len(t.srcs) == 0 {
		return
	}
	root := lhsRootIdent(lhs)
	if root == nil {
		return
	}
	obj := in.info.Uses[root]
	if obj == nil {
		return
	}
	// Writes through the receiver are internal state, not replies: start
	// after it.
	start := 0
	if sig := in.fn.obj.Type().(*types.Signature); sig.Recv() != nil {
		start = 1
	}
	for i := start; i < len(in.fn.inputObjs); i++ {
		if in.fn.inputObjs[i] != nil && in.fn.inputObjs[i] == obj {
			if _, ok := obj.Type().(*types.Pointer); ok {
				in.reportSinkFlow(lhs.Pos(), t, "written to the reply of")
			}
			return
		}
	}
}

// lhsRootIdent returns the base identifier of an lvalue chain, or nil.
func lhsRootIdent(e ast.Expr) *ast.Ident {
	for {
		switch l := ast.Unparen(e).(type) {
		case *ast.Ident:
			return l
		case *ast.SelectorExpr:
			e = l.X
		case *ast.StarExpr:
			e = l.X
		case *ast.IndexExpr:
			e = l.X
		case *ast.SliceExpr:
			e = l.X
		default:
			return nil
		}
	}
}

// reportSinkFlow emits one finding per (position, source) pair for taint
// reaching a sink boundary that has not already crossed one.
func (in *interp) reportSinkFlow(pos token.Pos, t taintVal, how string) {
	for _, s := range t.srcs {
		if s.viaSink {
			continue
		}
		key := fmt.Sprintf("%d|%s|%s", pos, s.ann.pos, how)
		if in.reported[key] {
			continue
		}
		in.reported[key] = true
		msg := fmt.Sprintf("privacy source %q %s privacy sink %s (%s) without a sanitizer",
			s.ann.desc, how, in.fn.name, in.fn.sink.desc)
		// Consecutive hops can land on the same function and line (a
		// summary application and the reported statement both stamp the
		// call site); collapse them so the printed chain stays one line
		// per hop.
		path := make([]PathHop, 0, len(s.path)+1)
		for _, h := range append(append([]PathHop(nil), s.path...), in.hop(pos)) {
			if len(path) == 0 || !sameHopSite(path[len(path)-1], h) {
				path = append(path, h)
			}
		}
		in.a.pass.Report(pos, msg, path)
	}
}

// sameHopSite reports whether two hops name the same function on the
// same source line (columns may differ between a call and its statement).
func sameHopSite(a, b PathHop) bool {
	return a.Func == b.Func && a.Pos.Filename == b.Pos.Filename && a.Pos.Line == b.Pos.Line
}

// ---- expressions ----

func (in *interp) evalExprList(list []ast.Expr) taintVal {
	var u taintVal
	for _, e := range list {
		u, _ = u.union(in.evalExpr(e))
	}
	return u
}

func (in *interp) evalExpr(e ast.Expr) taintVal {
	switch x := e.(type) {
	case nil:
		return taintVal{}
	case *ast.Ident:
		obj := in.info.Uses[x]
		if obj == nil {
			obj = in.info.Defs[x]
		}
		if obj == nil {
			return taintVal{}
		}
		return in.state[obj]
	case *ast.SelectorExpr:
		return in.evalSelector(x)
	case *ast.ParenExpr:
		return in.evalExpr(x.X)
	case *ast.CallExpr:
		res := in.evalCall(x)
		var u taintVal
		for _, t := range res {
			u, _ = u.union(t)
		}
		return u
	case *ast.BinaryExpr:
		u := in.evalExpr(x.X)
		u, _ = u.union(in.evalExpr(x.Y))
		return u
	case *ast.UnaryExpr:
		return in.evalExpr(x.X)
	case *ast.StarExpr:
		return in.evalExpr(x.X)
	case *ast.IndexExpr:
		// Either a container index or a generic instantiation used as a
		// value; both reduce to the operand's taint.
		u := in.evalExpr(x.X)
		u, _ = u.union(in.evalExpr(x.Index))
		return u
	case *ast.IndexListExpr:
		return in.evalExpr(x.X)
	case *ast.SliceExpr:
		// Bounds select which data is exposed, so they taint the view just
		// as an index taints an element (GatherRows-style row selection).
		u := in.evalExpr(x.X)
		u, _ = u.union(in.evalExpr(x.Low))
		u, _ = u.union(in.evalExpr(x.High))
		u, _ = u.union(in.evalExpr(x.Max))
		return u
	case *ast.TypeAssertExpr:
		return in.evalExpr(x.X)
	case *ast.CompositeLit:
		var u taintVal
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				u, _ = u.union(in.evalExpr(kv.Value))
				continue
			}
			u, _ = u.union(in.evalExpr(elt))
		}
		return u
	case *ast.KeyValueExpr:
		return in.evalExpr(x.Value)
	case *ast.FuncLit:
		// Closure bodies run in the enclosing state: walk for effects
		// (captured-variable writes, field stores, nested calls).
		in.walkStmt(x.Body)
		return taintVal{}
	case *ast.BasicLit, *ast.ArrayType, *ast.MapType, *ast.ChanType,
		*ast.StructType, *ast.InterfaceType, *ast.FuncType, *ast.Ellipsis:
		return taintVal{}
	}
	return taintVal{}
}

// evalSelector handles field reads (annotation sources and global field
// taint), method values, and qualified identifiers.
func (in *interp) evalSelector(x *ast.SelectorExpr) taintVal {
	if sel, ok := in.info.Selections[x]; ok {
		switch sel.Kind() {
		case types.FieldVal:
			t := in.evalExpr(x.X)
			field, _ := sel.Obj().(*types.Var)
			if field == nil {
				return t
			}
			if ann := in.a.anns[field]; ann != nil && ann.kind == annSource {
				s := &srcTaint{ann: ann, path: []PathHop{in.hop(x.Pos())}}
				if !t.hasSrc(s) {
					t.srcs = append(t.srcs[:len(t.srcs):len(t.srcs)], s)
				}
			}
			if ft, ok := in.a.fieldTaint[field]; ok {
				ext := taintVal{}
				for _, s := range ft.srcs {
					ext.srcs = append(ext.srcs, s.extend(in.hop(x.Pos())))
				}
				t, _ = t.union(ext)
			}
			return t
		case types.MethodVal:
			// A bound method value captures its receiver.
			return in.evalExpr(x.X)
		case types.MethodExpr:
			return taintVal{}
		}
	}
	// Qualified identifier (pkg.Name) or similar: read the object state.
	if obj := in.info.Uses[x.Sel]; obj != nil {
		return in.state[obj]
	}
	return taintVal{}
}

// ---- calls ----

// evalCall returns the per-result taints of a call expression.
func (in *interp) evalCall(call *ast.CallExpr) []taintVal {
	nres := callResultCount(in.info, call)
	// Type conversion: taint passes through.
	if tv, ok := in.info.Types[call.Fun]; ok && tv.IsType() {
		return []taintVal{in.evalExprList(call.Args)}
	}
	callee := in.calleeObj(call)
	if b, ok := callee.(*types.Builtin); ok {
		return in.evalBuiltin(b, call, nres)
	}
	fnObj, _ := callee.(*types.Func)
	if fnObj != nil {
		if ann := in.a.anns[fnObj]; ann != nil {
			switch ann.kind {
			case annSanitizer:
				in.evalExprList(call.Args)
				in.evalRecv(call)
				return make([]taintVal, nres)
			case annSource:
				in.evalExprList(call.Args)
				in.evalRecv(call)
				t := taintVal{srcs: []*srcTaint{{ann: ann, path: []PathHop{in.hop(call.Pos())}}}}
				return replicate(t, nres)
			}
		}
		if isInterfaceMethod(fnObj) {
			return in.evalIfaceCall(call, fnObj, nres)
		}
		if target := in.a.funcs[fnObj]; target != nil {
			out := make([]taintVal, nres)
			in.applySummary(call, target, out)
			return out
		}
	}
	return in.evalUnknownCall(call, nres)
}

// calleeObj resolves the called object, unwrapping generic instantiations
// (wireCall[R](...)) down to the generic function object.
func (in *interp) calleeObj(call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return in.info.Uses[f]
	case *ast.SelectorExpr:
		return in.info.Uses[f.Sel]
	}
	return nil
}

// evalRecv evaluates a method call's receiver expression for effects.
func (in *interp) evalRecv(call *ast.CallExpr) taintVal {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := in.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			return in.evalExpr(sel.X)
		}
	}
	// Method value called through a variable: the variable's taint stands
	// in for the captured receiver.
	return in.evalExpr(call.Fun)
}

// applySummary maps a callee's summary through this call site's operands,
// merging the per-result taints into out.
func (in *interp) applySummary(call *ast.CallExpr, target *pfFunc, out []taintVal) {
	ops := in.operandTaints(call, target)
	hop := PathHop{Func: in.fn.name, Pos: in.pos(call.Pos())}
	for r := range out {
		if r >= len(target.sum.results) {
			break
		}
		st := target.sum.results[r]
		if st.isZero() {
			continue
		}
		var t taintVal
		for i := range target.inputObjs {
			if i < 64 && st.inputs&(1<<uint(i)) != 0 && i < len(ops) {
				t, _ = t.union(ops[i])
			}
		}
		for _, s := range st.srcs {
			ext := s.extend(hop)
			if !t.hasSrc(ext) {
				t.srcs = append(t.srcs[:len(t.srcs):len(t.srcs)], ext)
			}
		}
		out[r], _ = out[r].union(t)
	}
}

// operandTaints evaluates the call's receiver and arguments into the
// callee's input-bit order.
func (in *interp) operandTaints(call *ast.CallExpr, target *pfFunc) []taintVal {
	ops := make([]taintVal, len(target.inputObjs))
	sig := target.obj.Type().(*types.Signature)
	off := 0
	if sig.Recv() != nil {
		if len(ops) > 0 {
			ops[0] = in.evalRecv(call)
		}
		off = 1
	}
	nparams := sig.Params().Len()
	for k, arg := range call.Args {
		t := in.evalExpr(arg)
		idx := off + k
		if k >= nparams { // extra variadic arguments fold into the last slot
			idx = off + nparams - 1
		}
		if idx >= 0 && idx < len(ops) {
			ops[idx], _ = ops[idx].union(t)
		}
	}
	return ops
}

// evalIfaceCall dispatches an interface method call to the union of its
// module implementations; with none known, it degrades to the conservative
// unknown-call rule.
func (in *interp) evalIfaceCall(call *ast.CallExpr, m *types.Func, nres int) []taintVal {
	impls := in.a.resolveImpls(m)
	if len(impls) == 0 {
		return in.evalUnknownCall(call, nres)
	}
	out := make([]taintVal, nres)
	for _, impl := range impls {
		in.applySummary(call, impl, out)
	}
	// The receiver and arguments are still evaluated once for effects.
	in.evalRecv(call)
	in.evalExprList(call.Args)
	return out
}

// evalBuiltin models the language builtins.
func (in *interp) evalBuiltin(b *types.Builtin, call *ast.CallExpr, nres int) []taintVal {
	switch b.Name() {
	case "append", "min", "max":
		return replicate(in.evalExprList(call.Args), nres)
	case "copy":
		if len(call.Args) == 2 {
			t := in.evalExpr(call.Args[1])
			in.evalExpr(call.Args[0])
			in.mergeRootOf(call.Args[0], t)
		}
		return make([]taintVal, nres)
	default:
		// len, cap, make, new, delete, clear, close, panic, complex, ...
		in.evalExprList(call.Args)
		return make([]taintVal, nres)
	}
}

// evalUnknownCall is the conservative fallback for callees outside the
// module (stdlib, function values): every result carries the union of the
// receiver and argument taints, and writable reference arguments (&x,
// pointers, slices — the PutUint64/rand.Read shape) absorb that union.
func (in *interp) evalUnknownCall(call *ast.CallExpr, nres int) []taintVal {
	u := in.evalRecv(call)
	for _, arg := range call.Args {
		u, _ = u.union(in.evalExpr(arg))
	}
	if !u.isZero() {
		for _, arg := range call.Args {
			if root := writableRefRoot(in.info, arg); root != nil {
				in.mergeState(root, u)
			}
		}
	}
	return replicate(u, nres)
}

// writableRefRoot returns the variable behind a reference-shaped argument
// (&x, x of pointer/slice/map type, x[i:j]) that an unknown callee could
// write through, or nil.
func writableRefRoot(info *types.Info, arg ast.Expr) types.Object {
	e := ast.Unparen(arg)
	// &x and x[i:j] are reference views of x whatever x's own type is
	// (slicing an array yields a writable slice of it).
	viaRef := false
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ast.Unparen(ue.X)
		viaRef = true
	}
	if se, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(se.X)
		viaRef = true
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		return nil
	}
	if viaRef {
		return obj
	}
	switch obj.Type().Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return obj
	}
	return nil
}

// callResultCount returns how many values a call yields.
func callResultCount(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return 1
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		return tup.Len()
	}
	if basic, ok := tv.Type.(*types.Basic); ok && basic.Kind() == types.Invalid {
		return 0
	}
	return 1
}

func replicate(t taintVal, n int) []taintVal {
	out := make([]taintVal, n)
	for i := range out {
		out[i] = t
	}
	return out
}
