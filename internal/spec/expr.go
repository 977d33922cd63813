package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// The spec DSL's expression language: 64-bit integer arithmetic over
// parameter names, builtin identifiers (rank, node, local, leader, ranks,
// rpn, nodes, optimized) and loop/let variables, with size-suffixed
// literals (4KiB, 32MiB, ...). Comparisons and boolean operators evaluate
// to 0/1; any nonzero value is truthy. Grammar (precedence low to high):
//
//	ternary := or ("?" ternary ":" ternary)?
//	or      := and ("||" and)*
//	and     := cmp ("&&" cmp)*
//	cmp     := add (("=="|"!="|"<="|">="|"<"|">") add)?
//	add     := mul (("+"|"-") mul)*
//	mul     := unary (("*"|"/"|"%") unary)*
//	unary   := ("!"|"-") unary | number | ident | "(" ternary ")"
//
// Division is Go integer division; division or modulo by zero is a
// runtime error surfaced through the engine.

const maxExprLen = 1024

// expr is a parsed expression tree.
type expr struct {
	src  string
	root exprNode
}

type exprNode interface {
	idents(f func(string))
}

type litNode int64

func (n litNode) idents(func(string)) {}

type identNode string

func (n identNode) idents(f func(string)) { f(string(n)) }

type unaryNode struct {
	op byte // '!' or '-'
	x  exprNode
}

func (n *unaryNode) idents(f func(string)) { n.x.idents(f) }

type binNode struct {
	op   string
	l, r exprNode
}

func (n *binNode) idents(f func(string)) { n.l.idents(f); n.r.idents(f) }

type ternNode struct {
	cond, then, els exprNode
}

func (n *ternNode) idents(f func(string)) { n.cond.idents(f); n.then.idents(f); n.els.idents(f) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// parseExpr parses src into an expression tree.
func parseExpr(src string) (*expr, error) {
	if len(src) > maxExprLen {
		return nil, fmt.Errorf("expression longer than %d bytes", maxExprLen)
	}
	p := &exprParser{src: src}
	root, err := p.ternary()
	if err != nil {
		return nil, fmt.Errorf("bad expression %q: %v", src, err)
	}
	p.ws()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("bad expression %q: trailing %q", src, p.src[p.pos:])
	}
	return &expr{src: src, root: root}, nil
}

// idents calls f for every identifier the expression references.
func (e *expr) idents(f func(string)) { e.root.idents(f) }

// cx is an expression compiled against a frame layout: every identifier is
// a slot of the frame, and constant subexpressions are folded.
type cx struct {
	src  string
	root *node
}

// node is one operation of a compiled expression.
type node struct {
	op   nodeOp
	val  int64  // nLit
	slot int    // nSlot, nVar
	name string // nVar, nUnknown: the identifier, for the error
	bin  string // nBin: the operator
	a, b *node  // operands; a ternary's then and else
	c    *node  // a ternary's condition
}

type nodeOp uint8

const (
	nLit     nodeOp = iota
	nSlot           // a slot that always holds a value: a param or topology builtin
	nVar            // a slot that may not hold a value yet: a variable or rank builtin
	nUnknown        // an identifier the frame has no slot for
	nNot
	nNeg
	nBin
	nTern
)

// frame is the slots one rank, task or setup step evaluates against; set
// says which hold a value.
type frame struct {
	v   []int64
	set []bool
}

// compile resolves e against a layout and folds its constant
// subexpressions. A fold never hides an error: a division by a literal
// zero stays a division.
func (e *expr) compile(l *layout) *cx {
	return &cx{src: e.src, root: compileNode(e.root, l)}
}

func compileNode(n exprNode, l *layout) *node {
	switch n := n.(type) {
	case litNode:
		return &node{op: nLit, val: int64(n)}
	case identNode:
		slot, ok := l.slots[string(n)]
		switch {
		case !ok:
			return &node{op: nUnknown, name: string(n)}
		case l.checked(slot):
			return &node{op: nVar, slot: slot, name: string(n)}
		}
		return &node{op: nSlot, slot: slot}
	case *unaryNode:
		x := compileNode(n.x, l)
		op := nNeg
		if n.op == '!' {
			op = nNot
		}
		c := &node{op: op, a: x}
		if x.op == nLit {
			v, _ := c.eval(nil)
			return &node{op: nLit, val: v}
		}
		return c
	case *binNode:
		a, b := compileNode(n.l, l), compileNode(n.r, l)
		c := &node{op: nBin, bin: n.op, a: a, b: b}
		if a.op == nLit && (b.op == nLit || n.op == "&&" && a.val == 0 || n.op == "||" && a.val != 0) {
			if v, err := c.eval(nil); err == nil {
				return &node{op: nLit, val: v}
			}
		}
		return c
	case *ternNode:
		cond := compileNode(n.cond, l)
		then, els := compileNode(n.then, l), compileNode(n.els, l)
		if cond.op == nLit {
			if cond.val != 0 {
				return then
			}
			return els
		}
		return &node{op: nTern, c: cond, a: then, b: els}
	}
	panic(fmt.Sprintf("spec: expression node %T", n))
}

// eval evaluates the expression in f.
func (x *cx) eval(f *frame) (int64, error) {
	if n := x.root; n.op == nSlot {
		return f.v[n.slot], nil
	}
	v, err := x.root.eval(f)
	if err != nil {
		return 0, fmt.Errorf("evaluating %q: %v", x.src, err)
	}
	return v, nil
}

func (n *node) eval(f *frame) (int64, error) {
	switch n.op {
	case nLit:
		return n.val, nil
	case nSlot:
		return f.v[n.slot], nil
	case nVar:
		if !f.set[n.slot] {
			return 0, fmt.Errorf("unknown identifier %q", n.name)
		}
		return f.v[n.slot], nil
	case nUnknown:
		return 0, fmt.Errorf("unknown identifier %q", n.name)
	case nNot, nNeg:
		v, err := n.a.eval(f)
		if err != nil {
			return 0, err
		}
		if n.op == nNot {
			return b2i(v == 0), nil
		}
		return -v, nil
	case nTern:
		c, err := n.c.eval(f)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return n.a.eval(f)
		}
		return n.b.eval(f)
	}
	l, err := n.a.eval(f)
	if err != nil {
		return 0, err
	}
	// Short-circuit the boolean operators.
	switch n.bin {
	case "&&":
		if l == 0 {
			return 0, nil
		}
		r, err := n.b.eval(f)
		if err != nil {
			return 0, err
		}
		return b2i(r != 0), nil
	case "||":
		if l != 0 {
			return 1, nil
		}
		r, err := n.b.eval(f)
		if err != nil {
			return 0, err
		}
		return b2i(r != 0), nil
	}
	r, err := n.b.eval(f)
	if err != nil {
		return 0, err
	}
	switch n.bin {
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
	case "==":
		return b2i(l == r), nil
	case "!=":
		return b2i(l != r), nil
	case "<":
		return b2i(l < r), nil
	case "<=":
		return b2i(l <= r), nil
	case ">":
		return b2i(l > r), nil
	case ">=":
		return b2i(l >= r), nil
	}
	return 0, fmt.Errorf("bad operator %q", n.bin)
}

type exprParser struct {
	src string
	pos int
}

func (p *exprParser) ws() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peekByte() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

// accept consumes tok if it is next, honoring operator maximal munch so
// "<" is not taken from "<=".
func (p *exprParser) accept(tok string) bool {
	p.ws()
	if !strings.HasPrefix(p.src[p.pos:], tok) {
		return false
	}
	rest := p.src[p.pos+len(tok):]
	switch tok {
	case "<", ">":
		if strings.HasPrefix(rest, "=") {
			return false
		}
	case "!":
		if strings.HasPrefix(rest, "=") {
			return false
		}
	case "=":
		return false
	case "&":
		return false
	case "|":
		return false
	}
	p.pos += len(tok)
	return true
}

func (p *exprParser) ternary() (exprNode, error) {
	cond, err := p.or()
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return cond, nil
	}
	then, err := p.ternary()
	if err != nil {
		return nil, err
	}
	if !p.accept(":") {
		return nil, fmt.Errorf("ternary missing ':'")
	}
	els, err := p.ternary()
	if err != nil {
		return nil, err
	}
	return &ternNode{cond: cond, then: then, els: els}, nil
}

func (p *exprParser) or() (exprNode, error) {
	l, err := p.and()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		r, err := p.and()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: "||", l: l, r: r}
	}
	return l, nil
}

func (p *exprParser) and() (exprNode, error) {
	l, err := p.cmp()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		r, err := p.cmp()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: "&&", l: l, r: r}
	}
	return l, nil
}

func (p *exprParser) cmp() (exprNode, error) {
	l, err := p.add()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"==", "!=", "<=", ">=", "<", ">"} {
		if p.accept(op) {
			r, err := p.add()
			if err != nil {
				return nil, err
			}
			return &binNode{op: op, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *exprParser) add() (exprNode, error) {
	l, err := p.mul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			r, err := p.mul()
			if err != nil {
				return nil, err
			}
			l = &binNode{op: "+", l: l, r: r}
		case p.accept("-"):
			r, err := p.mul()
			if err != nil {
				return nil, err
			}
			l = &binNode{op: "-", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *exprParser) mul() (exprNode, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("*"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &binNode{op: "*", l: l, r: r}
		case p.accept("/"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &binNode{op: "/", l: l, r: r}
		case p.accept("%"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &binNode{op: "%", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *exprParser) unary() (exprNode, error) {
	if p.accept("!") {
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &unaryNode{op: '!', x: x}, nil
	}
	if p.accept("-") {
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &unaryNode{op: '-', x: x}, nil
	}
	p.ws()
	c := p.peekByte()
	switch {
	case c == '(':
		p.pos++
		x, err := p.ternary()
		if err != nil {
			return nil, err
		}
		if !p.accept(")") {
			return nil, fmt.Errorf("missing ')'")
		}
		return x, nil
	case c >= '0' && c <= '9':
		return p.number()
	case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		return p.ident()
	}
	return nil, fmt.Errorf("unexpected %q", string(rune(c)))
}

// sizeSuffixes map the byte-size suffixes a literal may carry.
var sizeSuffixes = []struct {
	suffix string
	mult   int64
}{
	{"KiB", 1 << 10},
	{"MiB", 1 << 20},
	{"GiB", 1 << 30},
	{"TiB", 1 << 40},
}

func (p *exprParser) number() (exprNode, error) {
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	v, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad number %q: %v", p.src[start:p.pos], err)
	}
	for _, s := range sizeSuffixes {
		if strings.HasPrefix(p.src[p.pos:], s.suffix) {
			p.pos += len(s.suffix)
			return litNode(v * s.mult), nil
		}
	}
	return litNode(v), nil
}

func (p *exprParser) ident() (exprNode, error) {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.pos++
			continue
		}
		break
	}
	return identNode(p.src[start:p.pos]), nil
}
