package spec

import (
	"fmt"
)

// buildRun parses and validates the run program: a list of ops, groups
// (conditional / per-application), and loops, with every expression's
// identifiers checked against the params, builtins, and the loop/let
// variables introduced before use.
func (d *Doc) buildRun(v interface{}) error {
	l, err := asList(v, "run")
	if err != nil {
		return err
	}
	if len(l) == 0 {
		return fmt.Errorf("run: empty program")
	}
	rc := &runChecker{d: d, scope: map[string]bool{}}
	for id := range runBuiltins {
		rc.scope[id] = true
	}
	for name := range d.params {
		rc.scope[name] = true
	}
	d.run, err = rc.parseOps(l, "run", 0)
	return err
}

type runChecker struct {
	d     *Doc
	scope map[string]bool
	nOps  int
}

func (rc *runChecker) parseOps(l []interface{}, where string, depth int) ([]*op, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("%s: nesting deeper than %d", where, maxDepth)
	}
	var ops []*op
	for i, raw := range l {
		w := fmt.Sprintf("%s[%d]", where, i)
		rc.nOps++
		if rc.nOps > maxOps {
			return nil, fmt.Errorf("%s: program larger than %d ops", w, maxOps)
		}
		m, err := asObj(raw, w)
		if err != nil {
			return nil, err
		}
		o, err := rc.parseOp(m, w, depth)
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	return ops, nil
}

func (rc *runChecker) parseOp(m map[string]interface{}, w string, depth int) (*op, error) {
	if _, ok := m["do"]; ok {
		return rc.parseGroup(m, w, depth)
	}
	if len(m) != 1 {
		return nil, fmt.Errorf("%s: want exactly one op key, got %d", w, len(m))
	}
	var verb string
	for k := range m {
		verb = k
	}
	body, err := asObj(m[verb], w+"."+verb)
	if err != nil {
		return nil, err
	}
	w = w + "." + verb
	switch verb {
	case "loop":
		return rc.parseLoop(body, w, depth)
	case "let":
		return rc.parseLet(body, w)
	case "describe":
		return rc.parseDescribe(body, w)
	case "open":
		return rc.parseOpen(body, w)
	case "read", "write":
		return rc.parseRW(verb, body, w)
	case "pread":
		return rc.parsePRead(body, w)
	case "pwrite":
		return rc.parsePWrite(body, w)
	case "readwrap":
		return rc.parseReadWrap(body, w)
	case "close":
		if err := checkKeys(body, w); err != nil {
			return nil, err
		}
		return &op{kind: opClose}, nil
	case "stat":
		if err := checkKeys(body, w, "path"); err != nil {
			return nil, err
		}
		o := &op{kind: opStat}
		if o.path, err = rc.path(body["path"], w+".path"); err != nil {
			return nil, err
		}
		return o, nil
	case "barrier":
		if err := checkKeys(body, w, "name"); err != nil {
			return nil, err
		}
		name, err := asString(body["name"], w+".name")
		if err != nil {
			return nil, err
		}
		found := false
		for _, b := range rc.d.barriers {
			if b == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%s: unknown barrier %q", w, name)
		}
		return &op{kind: opBarrier, name: name}, nil
	case "compute", "gpu":
		if err := checkKeys(body, w, "time"); err != nil {
			return nil, err
		}
		if body["time"] == nil {
			return nil, fmt.Errorf("%s: time required", w)
		}
		e, err := asDurVal(body["time"], w+".time")
		if err != nil {
			return nil, err
		}
		if err := rc.expr(e, w+".time"); err != nil {
			return nil, err
		}
		k := opCompute
		if verb == "gpu" {
			k = opGPU
		}
		return &op{kind: k, dur: e}, nil
	}
	return nil, fmt.Errorf("%s: unknown op", w)
}

func (rc *runChecker) parseGroup(m map[string]interface{}, w string, depth int) (*op, error) {
	if err := checkKeys(m, w, "when", "app", "do"); err != nil {
		return nil, err
	}
	o := &op{kind: opGroup}
	var err error
	if raw, ok := m["when"]; ok {
		if o.when, err = asExprVal(raw, w+".when"); err != nil {
			return nil, err
		}
		if err := rc.expr(o.when, w+".when"); err != nil {
			return nil, err
		}
	}
	if raw, ok := m["app"]; ok {
		if o.app, err = asString(raw, w+".app"); err != nil {
			return nil, err
		}
		if !appRe.MatchString(o.app) {
			return nil, fmt.Errorf("%s.app: bad application name %q", w, o.app)
		}
	}
	body, err := asList(m["do"], w+".do")
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("%s.do: empty group", w)
	}
	if o.body, err = rc.parseOps(body, w+".do", depth+1); err != nil {
		return nil, err
	}
	return o, nil
}

func (rc *runChecker) parseLoop(m map[string]interface{}, w string, depth int) (*op, error) {
	if err := checkKeys(m, w, "var", "count", "from", "until", "step", "do"); err != nil {
		return nil, err
	}
	o := &op{kind: opLoop}
	var err error
	if o.loopVar, err = asString(m["var"], w+".var"); err != nil {
		return nil, err
	}
	if !identRe.MatchString(o.loopVar) {
		return nil, fmt.Errorf("%s.var: bad variable name %q", w, o.loopVar)
	}
	if _, exists := rc.d.params[o.loopVar]; exists || runBuiltins[o.loopVar] {
		return nil, fmt.Errorf("%s.var: %q shadows a param or builtin", w, o.loopVar)
	}
	hasCount := m["count"] != nil
	hasUntil := m["until"] != nil
	if hasCount == hasUntil {
		return nil, fmt.Errorf("%s: exactly one of count/until required", w)
	}
	if hasCount {
		if m["from"] != nil || m["step"] != nil {
			return nil, fmt.Errorf("%s: count excludes from/step", w)
		}
		if o.until, err = asExprVal(m["count"], w+".count"); err != nil {
			return nil, err
		}
		if err := rc.expr(o.until, w+".count"); err != nil {
			return nil, err
		}
	} else {
		if o.until, err = asExprVal(m["until"], w+".until"); err != nil {
			return nil, err
		}
		if err := rc.expr(o.until, w+".until"); err != nil {
			return nil, err
		}
		if raw, ok := m["from"]; ok {
			if o.from, err = asExprVal(raw, w+".from"); err != nil {
				return nil, err
			}
			if err := rc.expr(o.from, w+".from"); err != nil {
				return nil, err
			}
		}
		if raw, ok := m["step"]; ok {
			if o.step, err = asExprVal(raw, w+".step"); err != nil {
				return nil, err
			}
			if err := rc.expr(o.step, w+".step"); err != nil {
				return nil, err
			}
		}
	}
	body, err := asList(m["do"], w+".do")
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("%s.do: empty loop body", w)
	}
	rc.scope[o.loopVar] = true
	if o.body, err = rc.parseOps(body, w+".do", depth+1); err != nil {
		return nil, err
	}
	return o, nil
}

func (rc *runChecker) parseLet(m map[string]interface{}, w string) (*op, error) {
	if err := checkKeys(m, w, "name", "value"); err != nil {
		return nil, err
	}
	o := &op{kind: opLet}
	var err error
	if o.letName, err = asString(m["name"], w+".name"); err != nil {
		return nil, err
	}
	if !identRe.MatchString(o.letName) {
		return nil, fmt.Errorf("%s.name: bad variable name %q", w, o.letName)
	}
	if _, exists := rc.d.params[o.letName]; exists || runBuiltins[o.letName] {
		return nil, fmt.Errorf("%s.name: %q shadows a param or builtin", w, o.letName)
	}
	if m["value"] == nil {
		return nil, fmt.Errorf("%s: value required", w)
	}
	if o.letExpr, err = asExprVal(m["value"], w+".value"); err != nil {
		return nil, err
	}
	if err := rc.expr(o.letExpr, w+".value"); err != nil {
		return nil, err
	}
	rc.scope[o.letName] = true
	return o, nil
}

func (rc *runChecker) parseDescribe(m map[string]interface{}, w string) (*op, error) {
	if err := checkKeys(m, w, "path", "format", "ndims", "dtype"); err != nil {
		return nil, err
	}
	o := &op{kind: opDescribe}
	var err error
	if o.path, err = rc.path(m["path"], w+".path"); err != nil {
		return nil, err
	}
	if o.format, err = asString(m["format"], w+".format"); err != nil {
		return nil, err
	}
	if o.format == "" || len(o.format) > 16 {
		return nil, fmt.Errorf("%s.format: bad format", w)
	}
	nd, err := asInt(m["ndims"], w+".ndims")
	if err != nil {
		return nil, err
	}
	if nd < 0 || nd > 16 {
		return nil, fmt.Errorf("%s.ndims: %d out of range", w, nd)
	}
	o.ndims = int(nd)
	if o.dtype, err = asString(m["dtype"], w+".dtype"); err != nil {
		return nil, err
	}
	if o.dtype == "" || len(o.dtype) > 16 {
		return nil, fmt.Errorf("%s.dtype: bad dtype", w)
	}
	return o, nil
}

func (rc *runChecker) parseOpen(m map[string]interface{}, w string) (*op, error) {
	if err := checkKeys(m, w, "iface", "path", "create", "mode", "comm"); err != nil {
		return nil, err
	}
	o := &op{kind: opOpen}
	var err error
	if o.layer, err = asString(m["iface"], w+".iface"); err != nil {
		return nil, err
	}
	if o.path, err = rc.path(m["path"], w+".path"); err != nil {
		return nil, err
	}
	if raw, ok := m["create"]; ok {
		if o.create, err = asBool(raw, w+".create"); err != nil {
			return nil, err
		}
	}
	switch o.layer {
	case "posix":
		if err := checkKeys(m, w, "iface", "path", "create"); err != nil {
			return nil, err
		}
	case "stdio":
		if err := checkKeys(m, w, "iface", "path", "mode"); err != nil {
			return nil, err
		}
		mode, err := asString(m["mode"], w+".mode")
		if err != nil {
			return nil, err
		}
		if mode != "r" && mode != "w" {
			return nil, fmt.Errorf("%s.mode: want r or w, got %q", w, mode)
		}
		o.mode = mode[0]
	case "mpiio", "hdf5":
		if err := checkKeys(m, w, "iface", "path", "create", "comm"); err != nil {
			return nil, err
		}
		if m["comm"] == nil {
			return nil, fmt.Errorf("%s: comm required for %s", w, o.layer)
		}
		if o.comm, err = asExprVal(m["comm"], w+".comm"); err != nil {
			return nil, err
		}
		if err := rc.expr(o.comm, w+".comm"); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%s.iface: unknown interface %q", w, o.layer)
	}
	return o, nil
}

func (rc *runChecker) parseRW(verb string, m map[string]interface{}, w string) (*op, error) {
	if err := checkKeys(m, w, "total", "granule", "clamp"); err != nil {
		return nil, err
	}
	o := &op{kind: opRead, clamp: true}
	if verb == "write" {
		o.kind = opWrite
	}
	if err := rc.sizeFields(o, m, w); err != nil {
		return nil, err
	}
	return o, nil
}

func (rc *runChecker) parsePRead(m map[string]interface{}, w string) (*op, error) {
	if err := checkKeys(m, w, "at", "total", "granule", "stride", "clamp", "size"); err != nil {
		return nil, err
	}
	o := &op{kind: opPRead, clamp: true, stride: 1}
	var err error
	for _, f := range []struct {
		key string
		dst **expr
	}{{"at", &o.at}, {"size", &o.size}} {
		raw, ok := m[f.key]
		if !ok {
			continue
		}
		if *f.dst, err = asExprVal(raw, w+"."+f.key); err != nil {
			return nil, err
		}
		if err := rc.expr(*f.dst, w+"."+f.key); err != nil {
			return nil, err
		}
	}
	if raw, ok := m["stride"]; ok {
		n, err := constVal(raw, w+".stride")
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("%s.stride: must be positive", w)
		}
		o.stride = n
	}
	if err := rc.sizeFields(o, m, w); err != nil {
		return nil, err
	}
	return o, nil
}

func (rc *runChecker) parsePWrite(m map[string]interface{}, w string) (*op, error) {
	if err := checkKeys(m, w, "at", "append", "seek", "total", "granule", "clamp"); err != nil {
		return nil, err
	}
	o := &op{kind: opPWrite, clamp: true}
	var err error
	if raw, ok := m["append"]; ok {
		if o.appendBase, err = asBool(raw, w+".append"); err != nil {
			return nil, err
		}
	}
	if raw, ok := m["at"]; ok {
		if o.appendBase {
			return nil, fmt.Errorf("%s: at and append are exclusive", w)
		}
		if o.at, err = asExprVal(raw, w+".at"); err != nil {
			return nil, err
		}
		if err := rc.expr(o.at, w+".at"); err != nil {
			return nil, err
		}
	}
	if raw, ok := m["seek"]; ok {
		if o.seek, err = asBool(raw, w+".seek"); err != nil {
			return nil, err
		}
	}
	if err := rc.sizeFields(o, m, w); err != nil {
		return nil, err
	}
	return o, nil
}

func (rc *runChecker) parseReadWrap(m map[string]interface{}, w string) (*op, error) {
	if err := checkKeys(m, w, "total", "granule", "size"); err != nil {
		return nil, err
	}
	o := &op{kind: opReadWrap}
	var err error
	for _, f := range []struct {
		key string
		dst **expr
	}{{"total", &o.total}, {"granule", &o.granule}, {"size", &o.size}} {
		if m[f.key] == nil {
			return nil, fmt.Errorf("%s: %s required", w, f.key)
		}
		if *f.dst, err = asExprVal(m[f.key], w+"."+f.key); err != nil {
			return nil, err
		}
		if err := rc.expr(*f.dst, w+"."+f.key); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sizeFields parses the shared total/granule/clamp trio.
func (rc *runChecker) sizeFields(o *op, m map[string]interface{}, w string) error {
	if m["total"] == nil {
		return fmt.Errorf("%s: total required", w)
	}
	var err error
	if o.total, err = asExprVal(m["total"], w+".total"); err != nil {
		return err
	}
	if err := rc.expr(o.total, w+".total"); err != nil {
		return err
	}
	if raw, ok := m["granule"]; ok {
		if o.granule, err = asExprVal(raw, w+".granule"); err != nil {
			return err
		}
		if err := rc.expr(o.granule, w+".granule"); err != nil {
			return err
		}
	}
	if raw, ok := m["clamp"]; ok {
		if o.clamp, err = asBool(raw, w+".clamp"); err != nil {
			return err
		}
	}
	return nil
}

// expr checks every identifier an expression references is in scope.
func (rc *runChecker) expr(e *expr, w string) error {
	bad := ""
	e.idents(func(id string) {
		if bad == "" && !rc.scope[id] {
			bad = id
		}
	})
	if bad != "" {
		return fmt.Errorf("%s: unknown identifier %q", w, bad)
	}
	return nil
}

// path parses a path template and checks its identifiers and dir reference.
func (rc *runChecker) path(v interface{}, w string) (*pathT, error) {
	src, err := asString(v, w)
	if err != nil {
		return nil, err
	}
	t, err := parsePath(src, true)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", w, err)
	}
	bad := ""
	t.idents(func(id string) {
		if bad == "" && !rc.scope[id] {
			bad = id
		}
	})
	if bad != "" {
		return nil, fmt.Errorf("%s: unknown identifier %q", w, bad)
	}
	if t.dir != "" {
		if _, ok := rc.d.dirs[t.dir]; !ok {
			return nil, fmt.Errorf("%s: unknown dir @%s", w, t.dir)
		}
	}
	return t, nil
}
