package verilog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rtlil"
)

// maxWidth bounds the width of every declared range, sized literal,
// replication and concatenation. Every other expression is at most
// about as wide as its operands, so elaboration allocates at most a few
// bits per source byte per bit of this limit, however the widths are
// written.
const maxWidth = 1 << 12

func checkWidth(what string, n uint64) error {
	if n > maxWidth {
		return fmt.Errorf("verilog: %s is %d bits wide, over the %d-bit limit", what, n, maxWidth)
	}
	return nil
}

// parseNumber parses a literal after checking its size prefix.
func parseNumber(text string) (rtlil.SigSpec, error) {
	if tick := strings.IndexByte(text, '\''); tick > 0 {
		w, err := strconv.ParseUint(strings.ReplaceAll(text[:tick], "_", ""), 10, 64)
		if err == nil {
			if err := checkWidth("literal "+text, w); err != nil {
				return nil, err
			}
		}
	}
	return rtlil.ParseConst(text)
}

// Elaborate converts a parsed source file into an rtlil design. The
// lowering follows Yosys conventions: if/else chains become $mux trees,
// parallel case statements become $pmux cells driven by $eq comparisons,
// casez wildcards compare only the constrained selector bits, and
// clocked always blocks become $dff cells with hold-muxes for partially
// assigned paths — producing exactly the muxtree shapes the smaRTLy
// passes optimize.
func Elaborate(f *SourceFile) (*rtlil.Design, error) {
	d := rtlil.NewDesign()
	for _, md := range f.Modules {
		m, err := ElaborateModule(md)
		if err != nil {
			return nil, err
		}
		d.AddModule(m)
	}
	return d, nil
}

// ElaborateModule elaborates a single module.
func ElaborateModule(md *ModuleDecl) (*rtlil.Module, error) {
	e := &elaborator{
		md:     md,
		m:      rtlil.NewModule(md.Name),
		params: map[string]int64{},
		decls:  map[string]*declInfo{},
	}
	if err := e.collectParams(); err != nil {
		return nil, err
	}
	if err := e.collectDecls(); err != nil {
		return nil, err
	}
	for _, item := range md.Items {
		switch it := item.(type) {
		case *AssignStmt:
			if err := e.elabAssign(it); err != nil {
				return nil, err
			}
		case *AlwaysBlock:
			if err := e.elabAlways(it); err != nil {
				return nil, err
			}
		}
	}
	if err := e.m.Validate(); err != nil {
		return nil, fmt.Errorf("verilog: elaborated module %s invalid: %w", md.Name, err)
	}
	return e.m, nil
}

type declInfo struct {
	wire  *rtlil.Wire
	lsb   int // declared LSB offset ([7:4] => 4)
	isReg bool
}

type elaborator struct {
	md     *ModuleDecl
	m      *rtlil.Module
	params map[string]int64
	decls  map[string]*declInfo
}

func (e *elaborator) errorf(line int, format string, args ...any) error {
	return fmt.Errorf("verilog:%s:%d: %s", e.md.Name, line, fmt.Sprintf(format, args...))
}

func (e *elaborator) collectParams() error {
	for _, item := range e.md.Items {
		pd, ok := item.(*ParamDecl)
		if !ok {
			continue
		}
		v, err := e.evalConst(pd.Value)
		if err != nil {
			return e.errorf(pd.Line, "parameter %s: %v", pd.Name, err)
		}
		e.params[pd.Name] = v
	}
	return nil
}

func (e *elaborator) collectDecls() error {
	// Port order: header order first.
	portPos := map[string]int{}
	for i, p := range e.md.Ports {
		portPos[p] = i + 1
	}
	for _, item := range e.md.Items {
		d, ok := item.(*Decl)
		if !ok {
			continue
		}
		width, lsb := 1, 0
		if d.MSB != nil {
			msb, err := e.evalConst(d.MSB)
			if err != nil {
				return e.errorf(d.Line, "range MSB: %v", err)
			}
			l, err := e.evalConst(d.LSB)
			if err != nil {
				return e.errorf(d.Line, "range LSB: %v", err)
			}
			if msb < l {
				return e.errorf(d.Line, "descending ranges [%d:%d] not supported", msb, l)
			}
			if err := checkWidth(fmt.Sprintf("range [%d:%d]", msb, l), uint64(msb)-uint64(l)+1); err != nil {
				return e.errorf(d.Line, "%v", err)
			}
			width, lsb = int(msb-l+1), int(l)
		}
		for _, name := range d.Names {
			info := e.decls[name]
			if info == nil {
				w := e.m.AddWire(name, width)
				info = &declInfo{wire: w, lsb: lsb}
				e.decls[name] = info
			} else if info.wire.Width != width {
				return e.errorf(d.Line, "conflicting widths for %s", name)
			}
			if d.IsReg {
				info.isReg = true
			}
			switch d.Dir {
			case DirInput:
				info.wire.PortInput = true
			case DirOutput:
				info.wire.PortOutput = true
			}
			if info.wire.IsPort() && info.wire.PortID == 0 {
				if pos, ok := portPos[name]; ok {
					info.wire.PortID = pos
				} else {
					info.wire.PortID = len(portPos) + 1 + len(e.decls)
				}
			}
		}
	}
	for _, p := range e.md.Ports {
		info := e.decls[p]
		if info == nil {
			return fmt.Errorf("verilog:%s: port %s never declared", e.md.Name, p)
		}
		if !info.wire.IsPort() {
			return fmt.Errorf("verilog:%s: port %s has no direction", e.md.Name, p)
		}
	}
	return nil
}

// evalConst evaluates a constant (parameter) expression.
func (e *elaborator) evalConst(x Expr) (int64, error) {
	switch v := x.(type) {
	case *Number:
		sig, err := parseNumber(v.Text)
		if err != nil {
			return 0, err
		}
		u, ok := sig.AsUint64()
		if !ok {
			return 0, fmt.Errorf("constant %q has undefined bits", v.Text)
		}
		return int64(u), nil
	case *Ident:
		if p, ok := e.params[v.Name]; ok {
			return p, nil
		}
		return 0, fmt.Errorf("%s is not a parameter", v.Name)
	case *Unary:
		n, err := e.evalConst(v.X)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "-":
			return -n, nil
		case "~":
			return ^n, nil
		}
		return 0, fmt.Errorf("unsupported constant unary %s", v.Op)
	case *Binary:
		l, err := e.evalConst(v.L)
		if err != nil {
			return 0, err
		}
		r, err := e.evalConst(v.R)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, fmt.Errorf("modulo by zero")
			}
			return l % r, nil
		case "<<":
			return l << uint(r), nil
		case ">>":
			return l >> uint(r), nil
		}
		return 0, fmt.Errorf("unsupported constant binary %s", v.Op)
	}
	return 0, fmt.Errorf("unsupported constant expression %T", x)
}

// --- Expression synthesis ------------------------------------------------

func (e *elaborator) synthExpr(x Expr) (rtlil.SigSpec, error) {
	switch v := x.(type) {
	case *Number:
		// Parameters do not reach here; numbers parse directly.
		return parseNumber(v.Text)
	case *Ident:
		if p, ok := e.params[v.Name]; ok {
			return rtlil.Const(uint64(p), 32), nil
		}
		info := e.decls[v.Name]
		if info == nil {
			return nil, e.errorf(v.Line, "undeclared identifier %s", v.Name)
		}
		return info.wire.Bits(), nil
	case *Unary:
		a, err := e.synthExpr(v.X)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "~":
			return e.m.Not(a), nil
		case "!":
			return e.m.LogicNot(a), nil
		case "-":
			return e.m.Neg(a), nil
		case "&":
			return e.m.ReduceAnd(a), nil
		case "|":
			return e.m.ReduceOr(a), nil
		case "^":
			return e.m.ReduceXor(a), nil
		}
		return nil, fmt.Errorf("verilog: unsupported unary %s", v.Op)
	case *Binary:
		return e.synthBinary(v)
	case *Ternary:
		cond, err := e.synthCond(v.Cond)
		if err != nil {
			return nil, err
		}
		t, err := e.synthExpr(v.T)
		if err != nil {
			return nil, err
		}
		f, err := e.synthExpr(v.F)
		if err != nil {
			return nil, err
		}
		return e.m.Mux(f, t, cond), nil
	case *Index:
		return e.synthIndex(v)
	case *Slice:
		return e.synthSlice(v)
	case *Concat:
		var parts []rtlil.SigSpec
		width := 0
		// Source order is MSB first; SigSpec is LSB first.
		for i := len(v.Parts) - 1; i >= 0; i-- {
			p, err := e.synthExpr(v.Parts[i])
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
			width += len(p)
		}
		if err := checkWidth("concatenation", uint64(width)); err != nil {
			return nil, err
		}
		return rtlil.Concat(parts...), nil
	case *Repeat:
		n, err := e.evalConst(v.Count)
		if err != nil {
			return nil, err
		}
		if n <= 0 || n > 4096 {
			return nil, fmt.Errorf("verilog: bad replication count %d", n)
		}
		xs, err := e.synthExpr(v.X)
		if err != nil {
			return nil, err
		}
		if err := checkWidth("replication", uint64(n)*uint64(len(xs))); err != nil {
			return nil, err
		}
		return xs.Repeat(int(n)), nil
	}
	return nil, fmt.Errorf("verilog: unsupported expression %T", x)
}

func (e *elaborator) synthBinary(v *Binary) (rtlil.SigSpec, error) {
	// Logical operators reduce their operands first.
	if v.Op == "&&" || v.Op == "||" {
		l, err := e.synthExpr(v.L)
		if err != nil {
			return nil, err
		}
		r, err := e.synthExpr(v.R)
		if err != nil {
			return nil, err
		}
		if v.Op == "&&" {
			return e.m.LogicAnd(l, r), nil
		}
		return e.m.LogicOr(l, r), nil
	}
	l, err := e.synthExpr(v.L)
	if err != nil {
		return nil, err
	}
	r, err := e.synthExpr(v.R)
	if err != nil {
		return nil, err
	}
	switch v.Op {
	case "&":
		return e.m.And(l, r), nil
	case "|":
		return e.m.Or(l, r), nil
	case "^":
		return e.m.Xor(l, r), nil
	case "~^", "^~":
		return e.m.Xnor(l, r), nil
	case "+":
		return e.m.AddOp(l, r), nil
	case "-":
		return e.m.SubOp(l, r), nil
	case "*":
		return e.m.MulOp(l, r), nil
	case "==", "===":
		return e.m.Eq(l, r), nil
	case "!=", "!==":
		return e.m.Ne(l, r), nil
	case "<":
		return e.m.Lt(l, r), nil
	case "<=":
		return e.m.Le(l, r), nil
	case ">":
		return e.m.Gt(l, r), nil
	case ">=":
		return e.m.Ge(l, r), nil
	case "<<", "<<<":
		return e.m.Shl(l, r), nil
	case ">>", ">>>":
		return e.m.Shr(l, r), nil
	}
	return nil, fmt.Errorf("verilog: unsupported binary %s", v.Op)
}

// synthCond synthesizes a condition as a single bit (wider values are
// reduced with |).
func (e *elaborator) synthCond(x Expr) (rtlil.SigSpec, error) {
	c, err := e.synthExpr(x)
	if err != nil {
		return nil, err
	}
	if c.Width() == 1 {
		return c, nil
	}
	return e.m.ReduceOr(c), nil
}

func (e *elaborator) synthIndex(v *Index) (rtlil.SigSpec, error) {
	base, info, err := e.indexBase(v.X)
	if err != nil {
		return nil, err
	}
	lsb := 0
	if info != nil {
		lsb = info.lsb
	}
	if idx, cerr := e.evalConst(v.Idx); cerr == nil {
		off := int(idx) - lsb
		if off < 0 || off >= base.Width() {
			return nil, fmt.Errorf("verilog: index %d out of range", idx)
		}
		return base.Extract(off, 1), nil
	}
	// Variable index: shift right and take bit 0.
	idxSig, err := e.synthExpr(v.Idx)
	if err != nil {
		return nil, err
	}
	if lsb != 0 {
		idxSig = e.m.SubOp(idxSig, rtlil.Const(uint64(lsb), idxSig.Width()))
	}
	return e.m.Shr(base, idxSig).Extract(0, 1), nil
}

func (e *elaborator) synthSlice(v *Slice) (rtlil.SigSpec, error) {
	base, info, err := e.indexBase(v.X)
	if err != nil {
		return nil, err
	}
	lsb := 0
	if info != nil {
		lsb = info.lsb
	}
	msb, err := e.evalConst(v.MSB)
	if err != nil {
		return nil, err
	}
	l, err := e.evalConst(v.LSB)
	if err != nil {
		return nil, err
	}
	off, n := int(l)-lsb, int(msb-l+1)
	if n <= 0 || off < 0 || off+n > base.Width() {
		return nil, fmt.Errorf("verilog: slice [%d:%d] out of range", msb, l)
	}
	return base.Extract(off, n), nil
}

// indexBase resolves the operand of an index/slice, tracking the
// declaration for LSB offsets when it is a plain identifier.
func (e *elaborator) indexBase(x Expr) (rtlil.SigSpec, *declInfo, error) {
	if id, ok := x.(*Ident); ok {
		info := e.decls[id.Name]
		if info == nil {
			return nil, nil, e.errorf(id.Line, "undeclared identifier %s", id.Name)
		}
		return info.wire.Bits(), info, nil
	}
	sig, err := e.synthExpr(x)
	return sig, nil, err
}

// --- Continuous assignments ----------------------------------------------

func (e *elaborator) elabAssign(a *AssignStmt) error {
	lhs, err := e.synthLHS(a.LHS)
	if err != nil {
		return err
	}
	rhs, err := e.synthExpr(a.RHS)
	if err != nil {
		return err
	}
	e.m.Connect(lhs, rhs.Resize(lhs.Width(), false))
	return nil
}

// synthLHS resolves an assignment target to wire bits.
func (e *elaborator) synthLHS(x Expr) (rtlil.SigSpec, error) {
	switch v := x.(type) {
	case *Ident:
		info := e.decls[v.Name]
		if info == nil {
			return nil, e.errorf(v.Line, "undeclared assignment target %s", v.Name)
		}
		return info.wire.Bits(), nil
	case *Index:
		return e.synthIndex(v)
	case *Slice:
		return e.synthSlice(v)
	case *Concat:
		var parts []rtlil.SigSpec
		width := 0
		for i := len(v.Parts) - 1; i >= 0; i-- {
			p, err := e.synthLHS(v.Parts[i])
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
			width += len(p)
		}
		if err := checkWidth("concatenation", uint64(width)); err != nil {
			return nil, err
		}
		return rtlil.Concat(parts...), nil
	}
	return nil, fmt.Errorf("verilog: unsupported assignment target %T", x)
}

// --- Always blocks --------------------------------------------------------

// procEnv maps target wire names to their current symbolic value during
// procedural elaboration. A nil value means not yet assigned.
type procEnv map[string]rtlil.SigSpec

// sortedKeys returns the environment's target names in name order:
// cell-creating merges iterate targets through this so elaboration is
// deterministic run to run.
func sortedKeys(env procEnv) []string {
	out := make([]string, 0, len(env))
	for k := range env {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (env procEnv) clone() procEnv {
	out := make(procEnv, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

func (e *elaborator) elabAlways(a *AlwaysBlock) error {
	targets := map[string]bool{}
	if err := collectTargets(a.Body, targets); err != nil {
		return err
	}
	if len(targets) == 0 {
		return nil
	}
	// Iterate targets in name order so generated cells (and their
	// auto-assigned names) come out identical on every run.
	names := make([]string, 0, len(targets))
	for t := range targets {
		names = append(names, t)
	}
	sort.Strings(names)
	env := procEnv{}
	if !a.Comb {
		// Sequential: targets hold their value (Q) when unassigned.
		for _, t := range names {
			info := e.decls[t]
			if info == nil {
				return e.errorf(a.Line, "undeclared target %s", t)
			}
			env[t] = info.wire.Bits()
		}
	} else {
		for _, t := range names {
			if e.decls[t] == nil {
				return e.errorf(a.Line, "undeclared target %s", t)
			}
			env[t] = nil
		}
	}
	env, err := e.execStmt(a.Body, env)
	if err != nil {
		return err
	}
	if a.Comb {
		for _, t := range names {
			v := env[t]
			if v == nil {
				return e.errorf(a.Line, "combinational always block does not assign %s on all paths (latch)", t)
			}
			w := e.decls[t].wire
			e.m.Connect(w.Bits(), v.Resize(w.Width, false))
		}
		return nil
	}
	clkInfo := e.decls[a.Clock]
	if clkInfo == nil {
		return e.errorf(a.Line, "undeclared clock %s", a.Clock)
	}
	for _, t := range names {
		w := e.decls[t].wire
		d := env[t].Resize(w.Width, false)
		e.m.AddDff("", clkInfo.wire.Bits().Extract(0, 1), d, w.Bits())
	}
	return nil
}

// collectTargets finds every register assigned in the statement.
func collectTargets(s Stmt, out map[string]bool) error {
	switch v := s.(type) {
	case *Block:
		for _, st := range v.Stmts {
			if err := collectTargets(st, out); err != nil {
				return err
			}
		}
	case *ProcAssign:
		name, err := targetName(v.LHS)
		if err != nil {
			return err
		}
		out[name] = true
	case *IfStmt:
		if err := collectTargets(v.Then, out); err != nil {
			return err
		}
		if v.Else != nil {
			return collectTargets(v.Else, out)
		}
	case *CaseStmt:
		for _, item := range v.Items {
			if err := collectTargets(item.Body, out); err != nil {
				return err
			}
		}
	}
	return nil
}

func targetName(x Expr) (string, error) {
	switch v := x.(type) {
	case *Ident:
		return v.Name, nil
	case *Index:
		return targetName(v.X)
	case *Slice:
		return targetName(v.X)
	}
	return "", fmt.Errorf("verilog: unsupported procedural target %T", x)
}

func (e *elaborator) execStmt(s Stmt, env procEnv) (procEnv, error) {
	switch v := s.(type) {
	case *Block:
		var err error
		for _, st := range v.Stmts {
			env, err = e.execStmt(st, env)
			if err != nil {
				return nil, err
			}
		}
		return env, nil

	case *ProcAssign:
		return e.execAssign(v, env)

	case *IfStmt:
		cond, err := e.synthCond(v.Cond)
		if err != nil {
			return nil, err
		}
		envT, err := e.execStmt(v.Then, env.clone())
		if err != nil {
			return nil, err
		}
		envE := env.clone()
		if v.Else != nil {
			envE, err = e.execStmt(v.Else, envE)
			if err != nil {
				return nil, err
			}
		}
		return e.mergeEnvs(cond, envT, envE)

	case *CaseStmt:
		return e.execCase(v, env)
	}
	return nil, fmt.Errorf("verilog: unsupported statement %T", s)
}

func (e *elaborator) execAssign(v *ProcAssign, env procEnv) (procEnv, error) {
	name, err := targetName(v.LHS)
	if err != nil {
		return nil, err
	}
	info := e.decls[name]
	if info == nil {
		return nil, e.errorf(v.Line, "undeclared target %s", name)
	}
	rhs, err := e.synthExpr(v.RHS)
	if err != nil {
		return nil, err
	}
	switch lhs := v.LHS.(type) {
	case *Ident:
		env[name] = rhs.Resize(info.wire.Width, false)
	case *Index, *Slice:
		// Partial update: splice into the current value.
		cur := env[name]
		if cur == nil {
			return nil, e.errorf(v.Line, "partial assignment to %s before full assignment", name)
		}
		off, n, err := e.lhsRange(lhs, info)
		if err != nil {
			return nil, err
		}
		out := cur.Copy()
		rs := rhs.Resize(n, false)
		copy(out[off:off+n], rs)
		env[name] = out
	default:
		return nil, e.errorf(v.Line, "unsupported procedural target")
	}
	return env, nil
}

func (e *elaborator) lhsRange(x Expr, info *declInfo) (off, n int, err error) {
	switch v := x.(type) {
	case *Index:
		idx, cerr := e.evalConst(v.Idx)
		if cerr != nil {
			return 0, 0, fmt.Errorf("verilog: variable bit-select targets not supported")
		}
		return int(idx) - info.lsb, 1, nil
	case *Slice:
		msb, err1 := e.evalConst(v.MSB)
		lsb, err2 := e.evalConst(v.LSB)
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("verilog: non-constant part-select target")
		}
		return int(lsb) - info.lsb, int(msb - lsb + 1), nil
	}
	return 0, 0, fmt.Errorf("verilog: unsupported target")
}

// mergeEnvs joins two branch environments with a mux per divergent
// target.
func (e *elaborator) mergeEnvs(cond rtlil.SigSpec, envT, envE procEnv) (procEnv, error) {
	out := procEnv{}
	for _, k := range sortedKeys(envT) {
		vt, ve := envT[k], envE[k]
		switch {
		case vt == nil && ve == nil:
			out[k] = nil
		case vt == nil || ve == nil:
			// One branch leaves the target unassigned: the whole merge
			// is unassigned; the combinational completeness check at
			// block level reports it if this survives to the end.
			out[k] = nil
		case vt.Equal(ve):
			out[k] = vt
		default:
			w := vt.Width()
			if ve.Width() > w {
				w = ve.Width()
			}
			out[k] = e.m.Mux(ve.Resize(w, false), vt.Resize(w, false), cond)
		}
	}
	return out, nil
}

// execCase lowers a case statement. Parallel cases (constant, pairwise
// disjoint labels) become one $pmux per target; overlapping or
// non-constant labels fall back to a priority mux chain.
func (e *elaborator) execCase(v *CaseStmt, env procEnv) (procEnv, error) {
	sel, err := e.synthExpr(v.Expr)
	if err != nil {
		return nil, err
	}

	type arm struct {
		cond rtlil.SigSpec // nil for default
		env  procEnv
	}
	var arms []arm
	defaultEnv := env
	haveDefault := false
	for _, item := range v.Items {
		armEnv, err := e.execStmt(item.Body, env.clone())
		if err != nil {
			return nil, err
		}
		if item.Labels == nil {
			defaultEnv = armEnv
			haveDefault = true
			continue
		}
		cond, err := e.caseCond(sel, item.Labels, v.Wildcard)
		if err != nil {
			return nil, err
		}
		arms = append(arms, arm{cond: cond, env: armEnv})
	}
	_ = haveDefault

	if len(arms) == 0 {
		return defaultEnv, nil
	}

	if e.caseIsParallel(v, sel.Width()) {
		// One $pmux per target. Verilog gives priority to the first
		// item; our pmux has ascending priority, so item 0 goes last.
		out := procEnv{}
		var conds []rtlil.SigSpec
		for i := len(arms) - 1; i >= 0; i-- {
			conds = append(conds, arms[i].cond)
		}
		sbus := rtlil.Concat(conds...)
		for _, k := range sortedKeys(env) {
			dflt := defaultEnv[k]
			values := make([]rtlil.SigSpec, 0, len(arms))
			allAssigned := dflt != nil
			width := 0
			if dflt != nil {
				width = dflt.Width()
			}
			for i := len(arms) - 1; i >= 0; i-- {
				val := arms[i].env[k]
				if val == nil {
					allAssigned = false
					break
				}
				if val.Width() > width {
					width = val.Width()
				}
				values = append(values, val)
			}
			if !allAssigned {
				out[k] = nil
				continue
			}
			for i := range values {
				values[i] = values[i].Resize(width, false)
			}
			out[k] = e.m.Pmux(dflt.Resize(width, false), values, sbus)
		}
		return out, nil
	}

	// Priority chain: fold from the last arm to the first.
	cur := defaultEnv
	for i := len(arms) - 1; i >= 0; i-- {
		merged, err := e.mergeEnvs(arms[i].cond, arms[i].env, cur)
		if err != nil {
			return nil, err
		}
		cur = merged
	}
	return cur, nil
}

// caseCond builds the 1-bit match condition for a set of labels.
func (e *elaborator) caseCond(sel rtlil.SigSpec, labels []Expr, wildcard bool) (rtlil.SigSpec, error) {
	var conds []rtlil.SigSpec
	for _, l := range labels {
		if num, ok := l.(*Number); ok {
			konst, err := rtlil.ParseConst(num.Text)
			if err != nil {
				return nil, err
			}
			konst = konst.Resize(sel.Width(), false)
			if wildcard {
				// Compare only the defined label bits.
				var selBits, constBits rtlil.SigSpec
				for i, b := range konst {
					if b.Const == rtlil.S0 || b.Const == rtlil.S1 {
						selBits = append(selBits, sel[i])
						constBits = append(constBits, b)
					}
				}
				if len(selBits) == 0 {
					conds = append(conds, rtlil.Const(1, 1))
					continue
				}
				conds = append(conds, e.m.Eq(selBits, constBits))
				continue
			}
			if !konst.IsFullyDefined() {
				// x/z in a plain case label never matches in two-valued
				// semantics; treat like casez for robustness.
				return e.caseCond(sel, labels, true)
			}
			conds = append(conds, e.m.Eq(sel, konst))
			continue
		}
		ls, err := e.synthExpr(l)
		if err != nil {
			return nil, err
		}
		conds = append(conds, e.m.Eq(sel, ls.Resize(sel.Width(), false)))
	}
	cond := conds[0]
	for _, c := range conds[1:] {
		cond = e.m.Or(cond, c)
	}
	return cond, nil
}

// caseIsParallel reports whether all labels are constants and pairwise
// disjoint at the selector width (so match order cannot matter and a
// pmux is faithful).
func (e *elaborator) caseIsParallel(v *CaseStmt, selWidth int) bool {
	var pats []rtlil.SigSpec
	for _, item := range v.Items {
		for _, l := range item.Labels {
			num, ok := l.(*Number)
			if !ok {
				return false
			}
			konst, err := rtlil.ParseConst(num.Text)
			if err != nil {
				return false
			}
			pats = append(pats, konst.Resize(selWidth, false))
		}
	}
	for i := 0; i < len(pats); i++ {
		for j := i + 1; j < len(pats); j++ {
			if patternsOverlap(pats[i], pats[j]) {
				return false
			}
		}
	}
	return true
}

func patternsOverlap(a, b rtlil.SigSpec) bool {
	n := a.Width()
	for i := 0; i < n; i++ {
		av, bv := a[i].Const, b[i].Const
		aDef := av == rtlil.S0 || av == rtlil.S1
		bDef := bv == rtlil.S0 || bv == rtlil.S1
		if aDef && bDef && av != bv {
			return false
		}
	}
	return true
}
