// Package lower translates checked MiniC ASTs into the TLS compiler's IR.
//
// Scalars (ints and pointers) that never have their address taken live in
// virtual registers; address-taken locals and all aggregates (structs,
// arrays) live in frame slots; globals live in the globals segment. This
// split is what makes the distinction between register-resident values
// (synchronized by the scalarsync pass, prior work [32] in the paper) and
// memory-resident values (the subject of the paper) visible in the IR.
package lower

import (
	"fmt"

	"tlssync/internal/ir"
	"tlssync/internal/lang"
)

// Lower translates a checked program into IR.
func Lower(c *lang.Checked) (*ir.Program, error) {
	lw := &lowerer{c: c, prog: ir.NewProgram()}
	for _, g := range c.File.Globals {
		var init int64
		if g.Init != nil {
			switch lit := g.Init.(type) {
			case *lang.IntLit:
				init = lit.Value
			case *lang.NilLit:
				init = 0
			}
		}
		lw.prog.AddGlobal(g.Name, g.Type.Size(), init)
	}
	for _, fn := range c.File.Funcs {
		f, err := lw.lowerFunc(fn)
		if err != nil {
			return nil, err
		}
		lw.prog.AddFunc(f)
	}
	if err := lw.prog.Verify(); err != nil {
		return nil, fmt.Errorf("lower: generated invalid IR: %w", err)
	}
	return lw.prog, nil
}

// loc is the storage location of a local variable or parameter.
type loc struct {
	inMem bool
	reg   ir.Reg // valid when !inMem
	off   int64  // frame offset when inMem
}

type lowerer struct {
	c    *lang.Checked
	prog *ir.Program

	// Per-function state:
	fn     *ir.Func
	cur    *ir.Block
	locs   map[any]loc // *lang.VarDecl or *lang.Param -> loc
	frame  int64
	breaks []*ir.Block // innermost-last break targets
	conts  []*ir.Block // innermost-last continue targets

	// lastCallDst holds the destination register of the most recent call
	// emitted by call(); expr() reads it immediately afterwards.
	lastCallDst ir.Reg
}

func (lw *lowerer) lowerFunc(fn *lang.FuncDecl) (*ir.Func, error) {
	f := &ir.Func{Name: fn.Name, NParams: len(fn.Params), HasRet: fn.RetType != nil}
	lw.fn = f
	lw.locs = make(map[any]loc)
	lw.frame = 0
	lw.breaks, lw.conts = nil, nil

	entry := f.NewBlock("entry")
	f.Entry = entry
	lw.cur = entry

	for i := range fn.Params {
		p := &fn.Params[i]
		r := f.NewReg() // params occupy regs 0..NParams-1 in order
		if lw.c.AddrTaken[p] {
			off := lw.allocFrame(p.Type.Size())
			addr := lw.emitAddrLocal(off, p.Pos)
			lw.emit2(ir.Store, ir.None, addr, r, p.Pos)
			lw.locs[p] = loc{inMem: true, off: off}
		} else {
			lw.locs[p] = loc{reg: r}
		}
	}

	if err := lw.block(fn.Body); err != nil {
		return nil, err
	}

	// Complete the final block with an implicit return (value 0 for
	// value-returning functions, as in MiniC's defined-everything
	// semantics).
	if lw.cur.Terminator() == nil {
		lw.emitImplicitRet(fn)
	}
	// Some blocks (after break/return) may be unreachable and unterminated.
	lw.pruneUnreachable()
	for _, b := range f.Blocks {
		if b.Terminator() == nil {
			// Reachable block without terminator (e.g. loop exit at end of
			// function): give it the implicit return too.
			lw.cur = b
			lw.emitImplicitRet(fn)
		}
	}
	f.FrameSize = lw.frame
	f.Renumber()
	return f, nil
}

func (lw *lowerer) emitImplicitRet(fn *lang.FuncDecl) {
	ret := lw.prog.NewInstr(ir.Ret)
	if fn.RetType != nil {
		zero := lw.newValue(ir.Const, fn.Pos)
		zero.Imm = 0
		ret.A = zero.Dst
	}
	ret.Pos = fn.Pos
	lw.cur.Instrs = append(lw.cur.Instrs, ret)
}

// pruneUnreachable removes blocks not reachable from the entry. Blocks
// created after a return/break (for trailing statements) may be dead and
// possibly empty; the verifier rejects empty blocks, so drop them.
func (lw *lowerer) pruneUnreachable() {
	f := lw.fn
	reached := map[*ir.Block]bool{f.Entry: true}
	stack := []*ir.Block{f.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !reached[s] {
				reached[s] = true
				stack = append(stack, s)
			}
		}
	}
	var live []*ir.Block
	for _, b := range f.Blocks {
		if reached[b] {
			live = append(live, b)
		}
	}
	f.Blocks = live
}

func (lw *lowerer) allocFrame(size int64) int64 {
	off := lw.frame
	lw.frame += (size + lang.WordSize - 1) / lang.WordSize * lang.WordSize
	return off
}

// ---------------------------------------------------------------------------
// Emission helpers

func (lw *lowerer) append(in *ir.Instr) *ir.Instr {
	lw.cur.Instrs = append(lw.cur.Instrs, in)
	return in
}

// newValue emits an instruction producing a fresh destination register.
func (lw *lowerer) newValue(op ir.Op, pos lang.Pos) *ir.Instr {
	in := lw.prog.NewInstr(op)
	in.Dst = lw.fn.NewReg()
	in.Pos = pos
	return lw.append(in)
}

// emit2 emits an instruction with explicit dst/a/b and no fresh register.
func (lw *lowerer) emit2(op ir.Op, dst, a, b ir.Reg, pos lang.Pos) *ir.Instr {
	in := lw.prog.NewInstr(op)
	in.Dst, in.A, in.B = dst, a, b
	in.Pos = pos
	return lw.append(in)
}

func (lw *lowerer) emitConst(v int64, pos lang.Pos) ir.Reg {
	in := lw.newValue(ir.Const, pos)
	in.Imm = v
	return in.Dst
}

func (lw *lowerer) emitAddrLocal(off int64, pos lang.Pos) ir.Reg {
	in := lw.newValue(ir.AddrLocal, pos)
	in.Imm = off
	return in.Dst
}

func (lw *lowerer) emitBin(alu ir.AluOp, a, b ir.Reg, pos lang.Pos) ir.Reg {
	in := lw.newValue(ir.Bin, pos)
	in.Alu, in.A, in.B = alu, a, b
	return in.Dst
}

// emitAddImm adds a compile-time constant to a register (0 is a no-op).
func (lw *lowerer) emitAddImm(base ir.Reg, imm int64, pos lang.Pos) ir.Reg {
	if imm == 0 {
		return base
	}
	c := lw.emitConst(imm, pos)
	return lw.emitBin(ir.Add, base, c, pos)
}

// br terminates the current block with an unconditional branch to target.
func (lw *lowerer) br(target *ir.Block, pos lang.Pos) {
	in := lw.prog.NewInstr(ir.Br)
	in.Pos = pos
	lw.append(in)
	lw.cur.Succs = append(lw.cur.Succs, target)
}

// condbr terminates the current block branching on cond.
func (lw *lowerer) condbr(cond ir.Reg, then, els *ir.Block, pos lang.Pos) {
	in := lw.prog.NewInstr(ir.CondBr)
	in.A = cond
	in.Pos = pos
	lw.append(in)
	lw.cur.Succs = append(lw.cur.Succs, then, els)
}

// ---------------------------------------------------------------------------
// Statements

func (lw *lowerer) block(b *lang.BlockStmt) error {
	for _, s := range b.Stmts {
		if err := lw.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) stmt(s lang.Stmt) error {
	// Statements after a terminator (return/break/continue) open a dead
	// block so emission always has a target; pruneUnreachable drops it.
	if lw.cur.Terminator() != nil {
		lw.cur = lw.fn.NewBlock("dead")
	}
	switch st := s.(type) {
	case *lang.BlockStmt:
		return lw.block(st)
	case *lang.VarStmt:
		return lw.varStmt(st.Decl)
	case *lang.AssignStmt:
		return lw.assign(st)
	case *lang.IfStmt:
		return lw.ifStmt(st)
	case *lang.WhileStmt:
		return lw.whileStmt(st)
	case *lang.ForStmt:
		return lw.forStmt(st)
	case *lang.ReturnStmt:
		ret := lw.prog.NewInstr(ir.Ret)
		ret.Pos = st.Pos
		if st.Value != nil {
			v, err := lw.expr(st.Value)
			if err != nil {
				return err
			}
			ret.A = v
		}
		lw.append(ret)
		return nil
	case *lang.BreakStmt:
		if len(lw.breaks) == 0 {
			return lang.Errf(st.Pos, "break outside loop")
		}
		lw.br(lw.breaks[len(lw.breaks)-1], st.Pos)
		return nil
	case *lang.ContinueStmt:
		if len(lw.conts) == 0 {
			return lang.Errf(st.Pos, "continue outside loop")
		}
		lw.br(lw.conts[len(lw.conts)-1], st.Pos)
		return nil
	case *lang.ExprStmt:
		_, err := lw.exprOrVoid(st.X)
		return err
	}
	return fmt.Errorf("lower: unknown statement %T", s)
}

func (lw *lowerer) varStmt(d *lang.VarDecl) error {
	if !scalarType(d.Type) || lw.c.AddrTaken[d] {
		off := lw.allocFrame(d.Type.Size())
		lw.locs[d] = loc{inMem: true, off: off}
		// Frame memory is zeroed on function entry by the machine model
		// (see interp); aggregate locals need no explicit initialization.
		if d.Init != nil {
			v, err := lw.expr(d.Init)
			if err != nil {
				return err
			}
			addr := lw.emitAddrLocal(off, d.Pos)
			lw.emit2(ir.Store, ir.None, addr, v, d.Pos)
		}
		return nil
	}
	r := lw.fn.NewReg()
	lw.locs[d] = loc{reg: r}
	if d.Init != nil {
		v, err := lw.expr(d.Init)
		if err != nil {
			return err
		}
		lw.emit2(ir.Mov, r, v, ir.None, d.Pos)
		return nil
	}
	in := lw.prog.NewInstr(ir.Const)
	in.Dst, in.Imm, in.Pos = r, 0, d.Pos
	lw.append(in)
	return nil
}

func (lw *lowerer) assign(st *lang.AssignStmt) error {
	// Register-resident scalar local: direct move.
	if id, ok := st.LHS.(*lang.Ident); ok && !id.Global {
		if l, found := lw.locs[id.Decl]; found && !l.inMem {
			v, err := lw.expr(st.RHS)
			if err != nil {
				return err
			}
			lw.emit2(ir.Mov, l.reg, v, ir.None, st.Pos)
			return nil
		}
	}
	addr, err := lw.lvalAddr(st.LHS)
	if err != nil {
		return err
	}
	v, err := lw.expr(st.RHS)
	if err != nil {
		return err
	}
	lw.emit2(ir.Store, ir.None, addr, v, st.Pos)
	return nil
}

func (lw *lowerer) ifStmt(st *lang.IfStmt) error {
	cond, err := lw.expr(st.Cond)
	if err != nil {
		return err
	}
	thenB := lw.fn.NewBlock("then")
	joinB := lw.fn.NewBlock("join")
	elseB := joinB
	if st.Else != nil {
		elseB = lw.fn.NewBlock("else")
	}
	lw.condbr(cond, thenB, elseB, st.Pos)

	lw.cur = thenB
	if err := lw.block(st.Then); err != nil {
		return err
	}
	if lw.cur.Terminator() == nil {
		lw.br(joinB, st.Pos)
	}
	if st.Else != nil {
		lw.cur = elseB
		if err := lw.stmt(st.Else); err != nil {
			return err
		}
		if lw.cur.Terminator() == nil {
			lw.br(joinB, st.Pos)
		}
	}
	lw.cur = joinB
	return nil
}

func (lw *lowerer) whileStmt(st *lang.WhileStmt) error {
	return lw.loop(nil, st.Cond, nil, st.Body, false, st.Pos)
}

func (lw *lowerer) forStmt(st *lang.ForStmt) error {
	if st.Init != nil {
		if err := lw.stmt(st.Init); err != nil {
			return err
		}
	}
	return lw.loop(nil, st.Cond, st.Post, st.Body, st.Parallel, st.Pos)
}

// loop builds the canonical loop shape:
//
//	cur:    br header
//	header: cond -> body | exit     (ParallelHeader set for parallel for)
//	body:   ... br post
//	post:   post-stmt; br header
//	exit:
//
// continue targets post; break targets exit.
func (lw *lowerer) loop(_ lang.Stmt, cond lang.Expr, post lang.Stmt, body *lang.BlockStmt, parallel bool, pos lang.Pos) error {
	header := lw.fn.NewBlock("loop.header")
	bodyB := lw.fn.NewBlock("loop.body")
	postB := lw.fn.NewBlock("loop.post")
	exitB := lw.fn.NewBlock("loop.exit")
	header.ParallelHeader = parallel

	lw.br(header, pos)
	lw.cur = header
	if cond != nil {
		c, err := lw.expr(cond)
		if err != nil {
			return err
		}
		lw.condbr(c, bodyB, exitB, pos)
	} else {
		lw.br(bodyB, pos)
	}

	lw.breaks = append(lw.breaks, exitB)
	lw.conts = append(lw.conts, postB)
	lw.cur = bodyB
	if err := lw.block(body); err != nil {
		return err
	}
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.conts = lw.conts[:len(lw.conts)-1]
	if lw.cur.Terminator() == nil {
		lw.br(postB, pos)
	}

	lw.cur = postB
	if post != nil {
		if err := lw.stmt(post); err != nil {
			return err
		}
	}
	if lw.cur.Terminator() == nil {
		lw.br(header, pos)
	}
	lw.cur = exitB
	return nil
}

// ---------------------------------------------------------------------------
// Expressions

func scalarType(t lang.Type) bool {
	switch t.(type) {
	case lang.IntType, *lang.PtrType:
		return true
	}
	return false
}

// exprOrVoid lowers an expression that may be a void call.
func (lw *lowerer) exprOrVoid(e lang.Expr) (ir.Reg, error) {
	if c, ok := e.(*lang.Call); ok && c.Type() == nil {
		return ir.None, lw.call(c, false)
	}
	return lw.expr(e)
}

func (lw *lowerer) expr(e lang.Expr) (ir.Reg, error) {
	switch x := e.(type) {
	case *lang.IntLit:
		return lw.emitConst(x.Value, x.Pos), nil
	case *lang.NilLit:
		return lw.emitConst(0, x.Pos), nil
	case *lang.Ident:
		if !x.Global {
			if l, ok := lw.locs[x.Decl]; ok && !l.inMem {
				return l.reg, nil
			}
		}
		addr, err := lw.lvalAddr(x)
		if err != nil {
			return ir.None, err
		}
		ld := lw.newValue(ir.Load, x.Pos)
		ld.A = addr
		return ld.Dst, nil
	case *lang.Unary:
		return lw.unary(x)
	case *lang.Binary:
		return lw.binary(x)
	case *lang.Call:
		if err := lw.call(x, true); err != nil {
			return ir.None, err
		}
		return lw.lastCallDst, nil
	case *lang.New:
		size := x.Type().(*lang.PtrType).Elem.Size()
		in := lw.newValue(ir.NewObj, x.Pos)
		in.Imm = size
		return in.Dst, nil
	case *lang.FieldExpr, *lang.IndexExpr:
		if !scalarType(e.Type()) {
			return ir.None, lang.Errf(e.Position(), "cannot use aggregate %s as a value", e.Type())
		}
		addr, err := lw.lvalAddr(e)
		if err != nil {
			return ir.None, err
		}
		ld := lw.newValue(ir.Load, e.Position())
		ld.A = addr
		return ld.Dst, nil
	}
	return ir.None, fmt.Errorf("lower: unknown expression %T", e)
}

func (lw *lowerer) unary(x *lang.Unary) (ir.Reg, error) {
	switch x.Op {
	case lang.UNeg:
		a, err := lw.expr(x.X)
		if err != nil {
			return ir.None, err
		}
		in := lw.newValue(ir.Neg, x.Pos)
		in.A = a
		return in.Dst, nil
	case lang.UNot:
		a, err := lw.expr(x.X)
		if err != nil {
			return ir.None, err
		}
		in := lw.newValue(ir.Not, x.Pos)
		in.A = a
		return in.Dst, nil
	case lang.UDeref:
		a, err := lw.expr(x.X)
		if err != nil {
			return ir.None, err
		}
		ld := lw.newValue(ir.Load, x.Pos)
		ld.A = a
		return ld.Dst, nil
	case lang.UAddr:
		return lw.lvalAddr(x.X)
	}
	return ir.None, fmt.Errorf("lower: unknown unary op %d", x.Op)
}

var binToAlu = map[lang.BinOp]ir.AluOp{
	lang.BAdd: ir.Add, lang.BSub: ir.Sub, lang.BMul: ir.Mul,
	lang.BDiv: ir.Div, lang.BRem: ir.Rem, lang.BShl: ir.Shl,
	lang.BShr: ir.Shr, lang.BAnd: ir.And, lang.BOr: ir.Or,
	lang.BXor: ir.Xor, lang.BLt: ir.CmpLt, lang.BLe: ir.CmpLe,
	lang.BGt: ir.CmpGt, lang.BGe: ir.CmpGe, lang.BEq: ir.CmpEq,
	lang.BNe: ir.CmpNe,
}

func (lw *lowerer) binary(x *lang.Binary) (ir.Reg, error) {
	if x.Op == lang.BLand || x.Op == lang.BLor {
		return lw.shortCircuit(x)
	}
	a, err := lw.expr(x.X)
	if err != nil {
		return ir.None, err
	}
	b, err := lw.expr(x.Y)
	if err != nil {
		return ir.None, err
	}
	return lw.emitBin(binToAlu[x.Op], a, b, x.Pos), nil
}

// shortCircuit lowers && and || with control flow, producing 0 or 1.
func (lw *lowerer) shortCircuit(x *lang.Binary) (ir.Reg, error) {
	dst := lw.fn.NewReg()
	a, err := lw.expr(x.X)
	if err != nil {
		return ir.None, err
	}
	evalY := lw.fn.NewBlock("sc.rhs")
	short := lw.fn.NewBlock("sc.short")
	join := lw.fn.NewBlock("sc.join")
	if x.Op == lang.BLand {
		lw.condbr(a, evalY, short, x.Pos) // false -> short(0)
	} else {
		lw.condbr(a, short, evalY, x.Pos) // true -> short(1)
	}

	lw.cur = evalY
	b, err := lw.expr(x.Y)
	if err != nil {
		return ir.None, err
	}
	zero := lw.emitConst(0, x.Pos)
	norm := lw.emitBin(ir.CmpNe, b, zero, x.Pos)
	lw.emit2(ir.Mov, dst, norm, ir.None, x.Pos)
	lw.br(join, x.Pos)

	lw.cur = short
	shortVal := int64(0)
	if x.Op == lang.BLor {
		shortVal = 1
	}
	c := lw.emitConst(shortVal, x.Pos)
	lw.emit2(ir.Mov, dst, c, ir.None, x.Pos)
	lw.br(join, x.Pos)

	lw.cur = join
	return dst, nil
}

func (lw *lowerer) call(x *lang.Call, wantValue bool) error {
	var args []ir.Reg
	for _, a := range x.Args {
		r, err := lw.expr(a)
		if err != nil {
			return err
		}
		args = append(args, r)
	}
	var in *ir.Instr
	switch x.Builtin {
	case "rnd":
		in = lw.newValue(ir.Rnd, x.Pos)
		in.A = args[0]
	case "input":
		in = lw.newValue(ir.Input, x.Pos)
		in.A = args[0]
	case "print":
		in = lw.prog.NewInstr(ir.Print)
		in.A = args[0]
		in.Pos = x.Pos
		lw.append(in)
	default:
		in = lw.prog.NewInstr(ir.Call)
		in.Sym = x.Name
		in.Args = args
		in.Pos = x.Pos
		if x.Decl != nil && x.Decl.RetType != nil {
			in.Dst = lw.fn.NewReg()
		}
		lw.append(in)
	}
	if wantValue {
		if in.Dst == ir.None {
			return lang.Errf(x.Pos, "%s has no value", x.Name)
		}
		lw.lastCallDst = in.Dst
	}
	return nil
}

// lvalAddr computes the address of an lvalue into a register.
func (lw *lowerer) lvalAddr(e lang.Expr) (ir.Reg, error) {
	switch x := e.(type) {
	case *lang.Ident:
		if x.Global {
			in := lw.newValue(ir.AddrGlobal, x.Pos)
			in.Sym = x.Name
			return in.Dst, nil
		}
		l, ok := lw.locs[x.Decl]
		if !ok {
			return ir.None, lang.Errf(x.Pos, "internal: no location for %s", x.Name)
		}
		if !l.inMem {
			return ir.None, lang.Errf(x.Pos, "internal: taking address of register %s", x.Name)
		}
		return lw.emitAddrLocal(l.off, x.Pos), nil
	case *lang.Unary:
		if x.Op != lang.UDeref {
			return ir.None, lang.Errf(x.Pos, "not an lvalue")
		}
		return lw.expr(x.X)
	case *lang.FieldExpr:
		var base ir.Reg
		var err error
		if _, isPtr := x.X.Type().(*lang.PtrType); isPtr {
			base, err = lw.expr(x.X)
		} else {
			base, err = lw.lvalAddr(x.X)
		}
		if err != nil {
			return ir.None, err
		}
		return lw.emitAddImm(base, x.Field.Offset, x.Pos), nil
	case *lang.IndexExpr:
		var base ir.Reg
		var err error
		var elemSize int64
		switch t := x.X.Type().(type) {
		case *lang.ArrayType:
			base, err = lw.lvalAddr(x.X)
			elemSize = t.Elem.Size()
		case *lang.PtrType:
			base, err = lw.expr(x.X)
			elemSize = t.Elem.Size()
		default:
			return ir.None, lang.Errf(x.Pos, "cannot index %s", t)
		}
		if err != nil {
			return ir.None, err
		}
		idx, err := lw.expr(x.I)
		if err != nil {
			return ir.None, err
		}
		sz := lw.emitConst(elemSize, x.Pos)
		scaled := lw.emitBin(ir.Mul, idx, sz, x.Pos)
		return lw.emitBin(ir.Add, base, scaled, x.Pos), nil
	}
	return ir.None, lang.Errf(e.Position(), "not an lvalue")
}
