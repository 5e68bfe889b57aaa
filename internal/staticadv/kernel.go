package staticadv

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// recordLaunch handles one kernel launch: advance the API sequence,
// resolve the kernel body (a function literal at the call site, a
// variable bound to one, or a kernel-signature function declaration) and
// attribute every ExecContext access inside it to the captured buffer it
// addresses.
func (w *walker) recordLaunch(call *ast.CallExpr, op opCall) *event {
	seq := w.nextSeq()
	ev := w.newEvent(opLaunch, call.Pos(), seq)
	ev.kernel = launchKernelName(call)
	body := w.resolveKernelBody(call.Args[op.dst])
	if body == nil {
		// The body is out of reach (kernel passed through an interface or
		// an unanalyzed parameter): any live buffer may be touched.
		for _, b := range w.m.buffers {
			if !b.escaped && b.free == nil {
				w.escape(b, call.Pos())
			}
		}
		return ev
	}
	ku := &kernelUse{
		name:   ev.kernel,
		pos:    call.Pos(),
		loads:  make(map[*buffer]bool),
		stores: make(map[*buffer]bool),
	}
	w.walkKernelBody(ku, body, ev)
	w.m.kernels = append(w.m.kernels, ku)
	return ev
}

// resolveKernelBody finds the block of the kernel function expression.
func (w *walker) resolveKernelBody(arg ast.Expr) *ast.BlockStmt {
	switch x := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return x.Body
	case *ast.Ident:
		obj := w.m.pkg.Info.ObjectOf(x)
		if obj == nil {
			return nil
		}
		if lit := w.kernelLits[obj]; lit != nil {
			return lit.Body
		}
		if fd := w.funcs[obj]; fd != nil {
			return fd.Body
		}
	case *ast.SelectorExpr:
		obj := w.m.pkg.Info.ObjectOf(x.Sel)
		if obj != nil {
			if fd := w.funcs[obj]; fd != nil {
				return fd.Body
			}
		}
	}
	return nil
}

// walkKernelBody attributes the kernel's memory traffic. launch is the
// launch event giving every in-kernel access its sequence position and
// conditionality.
func (w *walker) walkKernelBody(ku *kernelUse, body *ast.BlockStmt, launch *event) {
	w.attributeKernel(ku, body, nil, 0, make(map[*ast.BlockStmt]bool))
	// The per-buffer model events: one load and/or store per launch, at
	// the launch's sequence position.
	for _, b := range orderedAttributed(ku) {
		if ku.loads[b] {
			ev := &event{seq: launch.seq, kind: opKernelLoad, pos: launch.pos, cond: launch.cond, loop: launch.loop, loopNode: launch.loopNode, kernel: ku.name}
			w.touch(b, ev)
		}
		if ku.stores[b] {
			ev := &event{seq: launch.seq, kind: opKernelStore, pos: launch.pos, cond: launch.cond, loop: launch.loop, loopNode: launch.loopNode, kernel: ku.name}
			w.touch(b, ev)
		}
	}
}

// attributeKernel walks one device-side body — the kernel function itself
// or an inlined device helper (a package function taking the ExecContext,
// like the lifting step a wavelet kernel calls per row). paramBufs binds
// the helper's DevicePtr parameters to the buffers the caller's arguments
// resolved to; for the kernel body itself it is nil and captured buffers
// resolve through the walker's bindings.
func (w *walker) attributeKernel(ku *kernelUse, body *ast.BlockStmt, paramBufs map[types.Object][]*buffer, depth int, active map[*ast.BlockStmt]bool) {
	if depth > maxInlineDepth || active[body] {
		// Too deep or recursive: the traffic through the unanalyzed call is
		// unknown, so every buffer reachable from its bindings escapes.
		for _, bufs := range paramBufs {
			for _, b := range bufs {
				w.escape(b, body.Pos())
			}
		}
		return
	}
	active[body] = true
	defer delete(active, body)
	res := newKernelResolver(w, body)
	res.params = paramBufs
	// First pass: recognized ExecContext accesses, attributed by address,
	// plus device-helper calls, inlined with their arguments' buffers
	// bound to the helper's parameters.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, addrIdx := execContextAccess(w.m.pkg.Info, call)
		if kind == opNone {
			w.inlineKernelHelper(ku, res, call, depth, active)
			return true
		}
		if addrIdx >= len(call.Args) {
			return true
		}
		bufs := res.buffersIn(call.Args[addrIdx])
		if len(bufs) > 1 {
			// Ambiguous addressing: the model cannot tell which object is
			// touched; all candidates leave the analysis.
			for _, b := range bufs {
				w.escape(b, call.Pos())
			}
			return true
		}
		if len(bufs) == 1 {
			b := bufs[0]
			ku.accs = append(ku.accs, kernelAccess{b: b, store: kind == opKernelStore, pos: call.Pos()})
			if kind == opKernelStore {
				ku.stores[b] = true
			} else {
				ku.loads[b] = true
			}
		}
		return true
	})
	// Second pass: any buffer mention outside covered address expressions
	// escapes (the kernel does something with it the model cannot see),
	// whether through a captured binding or an inlined helper's parameter.
	ast.Inspect(body, func(n ast.Node) bool {
		if res.covered(n) {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.m.pkg.Info.ObjectOf(id); obj != nil {
				if b := w.binding[obj]; b != nil {
					w.escape(b, id.Pos())
				}
				for _, b := range res.params[obj] {
					w.escape(b, id.Pos())
				}
			}
		}
		return true
	})
}

// inlineKernelHelper checks whether call invokes a package-level device
// helper — a function declaration whose signature carries an ExecContext —
// and if so attributes the helper body with the call's DevicePtr arguments
// bound to the matching parameters. Helpers keep kernels analyzable that
// factor per-row or per-column work into plain functions instead of
// writing everything inline in the launch literal.
func (w *walker) inlineKernelHelper(ku *kernelUse, res *kernelResolver, call *ast.CallExpr, depth int, active map[*ast.BlockStmt]bool) {
	obj := w.calleeObject(call)
	if obj == nil {
		return
	}
	fd := w.funcs[obj]
	if fd == nil || fd.Body == nil || fd.Type.Params == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Variadic() || sig.Params().Len() != len(call.Args) {
		return
	}
	hasCtx := false
	for i := 0; i < sig.Params().Len(); i++ {
		if isExecContextPtr(sig.Params().At(i).Type()) {
			hasCtx = true
		}
	}
	if !hasCtx {
		return
	}
	// Bind each DevicePtr argument's buffers to the parameter object. The
	// parameter objects come from the declaration's own idents. Non-pointer
	// arguments stay uncovered: a buffer smuggled through one escapes in
	// the second pass.
	params := make(map[types.Object][]*buffer)
	i := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if i >= len(call.Args) {
				return
			}
			if isDevicePtr(sig.Params().At(i).Type()) {
				if bufs := res.buffersIn(call.Args[i]); len(bufs) > 0 {
					if pobj := w.m.pkg.Info.ObjectOf(name); pobj != nil {
						params[pobj] = bufs
					}
				}
			}
			i++
		}
	}
	res.cover(call.Fun)
	w.attributeKernel(ku, fd.Body, params, depth+1, active)
}

// execContextAccess recognizes a ctx.Load*/Store*/Read/Write call and
// returns the access kind plus the address-argument index.
func execContextAccess(info *types.Info, call *ast.CallExpr) (opKind, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, 0
	}
	t := info.TypeOf(sel.X)
	if t == nil || !isExecContextPtr(t) {
		return opNone, 0
	}
	name := sel.Sel.Name
	switch {
	case name == "Read" || strings.HasPrefix(name, "Load"):
		return opKernelLoad, 0
	case name == "Write" || strings.HasPrefix(name, "Store"):
		return opKernelStore, 0
	}
	return opNone, 0
}

// accessSize maps a ctx access method to its element size in bytes (0 for
// the variable-size Read/Write pair).
func accessSize(name string) int64 {
	switch {
	case strings.HasSuffix(name, "F64"), strings.HasSuffix(name, "U64"):
		return 8
	case strings.HasSuffix(name, "F32"), strings.HasSuffix(name, "U32"):
		return 4
	case strings.HasSuffix(name, "U8"):
		return 1
	}
	return 0
}

// kernelResolver resolves buffer mentions through kernel-local address
// variables (`addr := dTmp + gpu.DevicePtr(off)` ... `ctx.StoreU8(addr, v)`).
type kernelResolver struct {
	w *walker
	// defs maps each kernel-local object to every expression assigned to
	// it anywhere in the body (multi-assignment locals keep all of them).
	defs map[types.Object][]ast.Expr
	// params binds an inlined device helper's DevicePtr parameters to the
	// buffers the caller's arguments resolved to (nil for the kernel body).
	params map[types.Object][]*buffer
	// spans marks expression ranges the model accounts for (address
	// arguments, local address definitions): buffer mentions inside them
	// do not escape.
	spans []span
}

type span struct{ lo, hi token.Pos }

func newKernelResolver(w *walker, body *ast.BlockStmt) *kernelResolver {
	r := &kernelResolver{w: w, defs: make(map[types.Object][]ast.Expr)}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := r.w.m.pkg.Info.ObjectOf(id)
			// Only locals carrying addresses matter: DevicePtr or integer
			// variables declared in this body. An assignment to a package
			// variable, a captured variable or a parameter puts the value
			// where the model cannot follow it, so its right side stays
			// uncovered and the buffers it mentions escape.
			if obj == nil || obj.Pos() < body.Pos() || obj.Pos() >= body.End() {
				continue
			}
			t := obj.Type()
			if t == nil || !(isDevicePtr(t) || isIntegerType(t)) {
				continue
			}
			r.defs[obj] = append(r.defs[obj], as.Rhs[i])
			r.cover(as.Rhs[i])
		}
		return true
	})
	return r
}

// isIntegerType reports whether t's underlying type is any integer.
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// cover marks an expression range as accounted for.
func (r *kernelResolver) cover(e ast.Expr) {
	r.spans = append(r.spans, span{lo: e.Pos(), hi: e.End()})
}

// covered reports whether a node lies inside an accounted-for range.
func (r *kernelResolver) covered(n ast.Node) bool {
	if n == nil {
		return false
	}
	for _, s := range r.spans {
		if n.Pos() >= s.lo && n.End() <= s.hi {
			return true
		}
	}
	return false
}

// buffersIn returns the distinct tracked buffers an address expression
// can refer to, chasing kernel-local variables, and marks the expression
// covered.
func (r *kernelResolver) buffersIn(e ast.Expr) []*buffer {
	r.cover(e)
	seen := make(map[types.Object]bool)
	var out []*buffer
	have := make(map[*buffer]bool)
	var visit func(e ast.Expr, depth int)
	visit = func(e ast.Expr, depth int) {
		if depth > 16 {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := r.w.m.pkg.Info.ObjectOf(id)
			if obj == nil || seen[obj] {
				return true
			}
			if b := r.w.binding[obj]; b != nil {
				if !have[b] {
					have[b] = true
					out = append(out, b)
				}
				return true
			}
			if bufs := r.params[obj]; bufs != nil {
				for _, b := range bufs {
					if !have[b] {
						have[b] = true
						out = append(out, b)
					}
				}
				return true
			}
			if defs := r.defs[obj]; defs != nil {
				seen[obj] = true
				for _, d := range defs {
					visit(d, depth+1)
				}
			}
			return true
		})
	}
	visit(e, 0)
	return out
}

// orderedAttributed returns the kernel's attributed buffers in first-
// access order (deterministic regardless of the membership maps).
func orderedAttributed(ku *kernelUse) []*buffer {
	var out []*buffer
	have := make(map[*buffer]bool)
	for _, a := range ku.accs {
		if !have[a.b] {
			have[a.b] = true
			out = append(out, a.b)
		}
	}
	return out
}
