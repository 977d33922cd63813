// Package spec implements the declarative workload DSL: YAML/JSON
// documents describing an HPC workload's I/O behavior — topology
// defaults, scaled parameters, staged datasets, value distributions,
// barriers, and a per-rank program of phases over the simulated I/O
// interfaces — compiled onto internal/sim + internal/cluster +
// internal/iface as a workloads.Workload.
//
// The compiled workload interprets the document: it issues the interface
// calls the run program names, in order. The package also holds the golden
// specs — three of the paper's exemplars, described here and nowhere else
// — the catalog of every workload by name (catalog.go), and the sweep
// document (sweep.go): a spec plus a parameter grid, which internal/sweep
// runs and reduces into a comparative report.
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"sort"
	"time"

	"vani/internal/yamlenc"
)

// ErrBadSpec wraps every parse/validation failure, so callers (and the
// fuzzer) can assert that malformed input is rejected uniformly.
var ErrBadSpec = errors.New("invalid workload spec")

// Bounds on document shape, enforced during validation so corrupt or
// adversarial input cannot balloon allocation.
const (
	maxSpecBytes  = 1 << 20
	maxParams     = 256
	maxDirs       = 64
	maxBarriers   = 64
	maxSetupSteps = 256
	maxOps        = 4096
	maxDepth      = 32
	maxSampleN    = 1 << 16
)

var (
	nameRe  = regexp.MustCompile(`^[a-z][a-z0-9-]{0,63}$`)
	appRe   = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_-]{0,63}$`)
	identRe = regexp.MustCompile(`^[a-z][a-z0-9_]{0,63}$`)
)

// builtins usable in run-program expressions. Setup expressions see the
// same set minus the per-rank identifiers plus the staging loop vars.
var runBuiltins = map[string]bool{
	"rank": true, "node": true, "local": true, "leader": true,
	"ranks": true, "rpn": true, "nodes": true, "optimized": true,
}

// Doc is a validated, compiled workload spec.
type Doc struct {
	Version  int
	Name     string
	App      string
	Defaults Defaults

	params   map[string]*param
	ordered  []*param // value params first, then expr params, name-sorted
	dirs     map[string]*dir
	barriers []string
	setup    []*setupStep
	run      []*op
}

// Defaults override workloads.DefaultSpec for this workload.
type Defaults struct {
	Nodes         int
	RanksPerNode  int
	TimeLimit     time.Duration
	StdioPerOpCPU time.Duration
}

type paramKind int

const (
	paramCount paramKind = iota
	paramBytes
	paramTime
	paramExpr
)

type param struct {
	name   string
	kind   paramKind
	value  int64 // raw count/bytes, or nanoseconds for time
	scaled bool
	unit   int64 // scaling floor for bytes params
	e      *expr
}

// set bounds and stores a value param's value: a count, a byte size, or
// nanoseconds for a time.
func (p *param) set(n int64) error {
	switch {
	case p.kind == paramExpr:
		return errors.New("is an expression")
	case n < 0:
		return errors.New("negative")
	case p.kind == paramCount && n > 1<<40:
		return fmt.Errorf("%d out of range", n)
	}
	p.value = n
	return nil
}

// Set overrides a value param — a count, a byte size, or a time in
// nanoseconds — within the bounds the parser holds it to. Workloads compiled
// from the document run with the new value; an expr param is derived from
// the others and cannot be set.
func (d *Doc) Set(name string, v int64) error {
	p, ok := d.params[name]
	if !ok {
		return fmt.Errorf("spec %s: no param %q", d.Name, name)
	}
	if err := p.set(v); err != nil {
		return fmt.Errorf("spec %s: param %s: %v", d.Name, name, err)
	}
	return nil
}

type dir struct {
	name      string
	base      *pathT
	optimized *pathT // nil = same as base
}

type setupStep struct {
	// files step
	path    *pathT
	count   *expr // nil = 1
	size    *expr
	perNode bool
	onNode  bool
	// sample step
	sample  string
	dist    string // normal | gamma | uniform
	a, b    float64
	sampleN int
}

type opKind int

const (
	opGroup opKind = iota
	opLoop
	opLet
	opDescribe
	opOpen
	opRead
	opWrite
	opPRead
	opPWrite
	opReadWrap
	opClose
	opStat
	opBarrier
	opCompute
	opGPU
)

type op struct {
	kind opKind

	// group
	when *expr
	app  string
	body []*op

	// loop
	loopVar           string
	from, until, step *expr

	// let
	letName string
	letExpr *expr

	// file ops
	path          *pathT
	format, dtype string
	ndims         int
	layer         string // posix | stdio | mpiio | hdf5
	create        bool
	mode          byte // stdio 'r' / 'w'
	comm          *expr
	total         *expr
	granule       *expr // nil = total
	at            *expr // nil = 0
	size          *expr // readwrap, pread: file size
	stride        int64
	clamp         bool
	seek          bool
	appendBase    bool

	// barrier / compute
	name string
	dur  *expr // nanoseconds
}

// Parse decodes, validates, and compiles a workload spec. Input starting
// with '{' (after whitespace) is treated as JSON, anything else as YAML.
func Parse(data []byte) (*Doc, error) {
	tree, err := decodeTree(data)
	if err != nil {
		return nil, err
	}
	d, err := buildDoc(tree)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return d, nil
}

// ParseFile reads and parses a spec from disk.
func ParseFile(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// decodeTree sniffs the encoding and decodes into the generic tree both
// parsers share: map[string]interface{} / []interface{} / scalars.
// stripComments drops full-line YAML comments (first non-blank character
// is '#') before handing the document to yamlenc, which has no comment
// support. Trailing comments are left alone: '#' is a legal character in
// scalar values, and none of the spec grammar's fields need it.
func stripComments(data []byte) []byte {
	lines := bytes.Split(data, []byte("\n"))
	out := make([][]byte, 0, len(lines))
	for _, line := range lines {
		trimmed := bytes.TrimLeft(line, " \t")
		if len(trimmed) > 0 && trimmed[0] == '#' {
			continue
		}
		out = append(out, line)
	}
	return bytes.Join(out, []byte("\n"))
}

func decodeTree(data []byte) (map[string]interface{}, error) {
	if len(data) > maxSpecBytes {
		return nil, fmt.Errorf("%w: spec larger than %d bytes", ErrBadSpec, maxSpecBytes)
	}
	i := 0
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	if i == len(data) {
		return nil, fmt.Errorf("%w: empty document", ErrBadSpec)
	}
	var v interface{}
	if data[i] == '{' {
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	} else {
		t, err := yamlenc.Unmarshal(stripComments(data))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		v = t
	}
	m, ok := v.(map[string]interface{})
	if !ok {
		return nil, fmt.Errorf("%w: top level is %T, want a mapping", ErrBadSpec, v)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Generic-tree helpers

func checkKeys(m map[string]interface{}, where string, allowed ...string) error {
	for k := range m {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("%s: unknown key %q", where, k)
		}
	}
	return nil
}

func asObj(v interface{}, where string) (map[string]interface{}, error) {
	if v == nil {
		return map[string]interface{}{}, nil
	}
	m, ok := v.(map[string]interface{})
	if !ok {
		return nil, fmt.Errorf("%s: got %T, want a mapping", where, v)
	}
	return m, nil
}

func asList(v interface{}, where string) ([]interface{}, error) {
	if v == nil {
		return nil, nil
	}
	l, ok := v.([]interface{})
	if !ok {
		return nil, fmt.Errorf("%s: got %T, want a list", where, v)
	}
	return l, nil
}

func asString(v interface{}, where string) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("%s: got %T, want a string", where, v)
	}
	return s, nil
}

func asInt(v interface{}, where string) (int64, error) {
	switch t := v.(type) {
	case int64:
		return t, nil
	case float64:
		if t == float64(int64(t)) {
			return int64(t), nil
		}
	}
	return 0, fmt.Errorf("%s: got %v (%T), want an integer", where, v, v)
}

func asFloat(v interface{}, where string) (float64, error) {
	switch t := v.(type) {
	case int64:
		return float64(t), nil
	case float64:
		return t, nil
	}
	return 0, fmt.Errorf("%s: got %T, want a number", where, v)
}

func asBool(v interface{}, where string) (bool, error) {
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("%s: got %T, want a bool", where, v)
	}
	return b, nil
}

// asExprVal accepts an integer scalar or an expression string.
func asExprVal(v interface{}, where string) (*expr, error) {
	switch t := v.(type) {
	case int64:
		return &expr{src: fmt.Sprint(t), root: litNode(t)}, nil
	case float64:
		if t == float64(int64(t)) {
			return &expr{src: fmt.Sprint(int64(t)), root: litNode(int64(t))}, nil
		}
		return nil, fmt.Errorf("%s: non-integer number %v", where, t)
	case string:
		e, err := parseExpr(t)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", where, err)
		}
		return e, nil
	}
	return nil, fmt.Errorf("%s: got %T, want an integer or expression", where, v)
}

// asDurVal accepts a duration string ("90s"), an integer nanosecond
// count, or an expression over time params (which hold nanoseconds).
func asDurVal(v interface{}, where string) (*expr, error) {
	if s, ok := v.(string); ok {
		if d, err := time.ParseDuration(s); err == nil {
			if d < 0 {
				return nil, fmt.Errorf("%s: negative duration %v", where, d)
			}
			return &expr{src: s, root: litNode(int64(d))}, nil
		}
	}
	return asExprVal(v, where)
}

func asDuration(v interface{}, where string) (time.Duration, error) {
	switch t := v.(type) {
	case string:
		d, err := time.ParseDuration(t)
		if err != nil {
			return 0, fmt.Errorf("%s: bad duration %q", where, t)
		}
		return d, nil
	case int64:
		return time.Duration(t), nil
	}
	return 0, fmt.Errorf("%s: got %T, want a duration", where, v)
}

// ---------------------------------------------------------------------------
// Document builder

func buildDoc(m map[string]interface{}) (*Doc, error) {
	if err := checkKeys(m, "document", "version", "name", "app", "defaults",
		"params", "dirs", "barriers", "setup", "run"); err != nil {
		return nil, err
	}
	d := &Doc{
		params: map[string]*param{},
		dirs:   map[string]*dir{},
	}
	v, err := asInt(m["version"], "version")
	if err != nil {
		return nil, err
	}
	if v != 1 {
		return nil, fmt.Errorf("version: unsupported version %d", v)
	}
	d.Version = int(v)
	if d.Name, err = asString(m["name"], "name"); err != nil {
		return nil, err
	}
	if !nameRe.MatchString(d.Name) {
		return nil, fmt.Errorf("name: bad workload name %q", d.Name)
	}
	if d.App, err = asString(m["app"], "app"); err != nil {
		return nil, err
	}
	if !appRe.MatchString(d.App) {
		return nil, fmt.Errorf("app: bad application name %q", d.App)
	}
	if err := d.buildDefaults(m["defaults"]); err != nil {
		return nil, err
	}
	if err := d.buildParams(m["params"]); err != nil {
		return nil, err
	}
	if err := d.buildDirs(m["dirs"]); err != nil {
		return nil, err
	}
	if err := d.buildBarriers(m["barriers"]); err != nil {
		return nil, err
	}
	if err := d.buildSetup(m["setup"]); err != nil {
		return nil, err
	}
	if err := d.buildRun(m["run"]); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Doc) buildDefaults(v interface{}) error {
	m, err := asObj(v, "defaults")
	if err != nil {
		return err
	}
	if err := checkKeys(m, "defaults", "nodes", "ranks_per_node", "time_limit", "stdio_per_op_cpu"); err != nil {
		return err
	}
	if raw, ok := m["nodes"]; ok {
		n, err := asInt(raw, "defaults.nodes")
		if err != nil {
			return err
		}
		if n < 1 || n > 1<<20 {
			return fmt.Errorf("defaults.nodes: %d out of range", n)
		}
		d.Defaults.Nodes = int(n)
	}
	if raw, ok := m["ranks_per_node"]; ok {
		n, err := asInt(raw, "defaults.ranks_per_node")
		if err != nil {
			return err
		}
		if n < 1 || n > 1<<16 {
			return fmt.Errorf("defaults.ranks_per_node: %d out of range", n)
		}
		d.Defaults.RanksPerNode = int(n)
	}
	if raw, ok := m["time_limit"]; ok {
		t, err := asDuration(raw, "defaults.time_limit")
		if err != nil {
			return err
		}
		if t <= 0 {
			return fmt.Errorf("defaults.time_limit: must be positive")
		}
		d.Defaults.TimeLimit = t
	}
	if raw, ok := m["stdio_per_op_cpu"]; ok {
		t, err := asDuration(raw, "defaults.stdio_per_op_cpu")
		if err != nil {
			return err
		}
		if t < 0 {
			return fmt.Errorf("defaults.stdio_per_op_cpu: must be non-negative")
		}
		d.Defaults.StdioPerOpCPU = t
	}
	return nil
}

func (d *Doc) buildParams(v interface{}) error {
	m, err := asObj(v, "params")
	if err != nil {
		return err
	}
	if len(m) > maxParams {
		return fmt.Errorf("params: %d params exceed the %d cap", len(m), maxParams)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !identRe.MatchString(name) {
			return fmt.Errorf("params: bad param name %q", name)
		}
		if runBuiltins[name] || name == "i" {
			return fmt.Errorf("params: %q shadows a builtin", name)
		}
		pm, err := asObj(m[name], "params."+name)
		if err != nil {
			return err
		}
		if err := checkKeys(pm, "params."+name, "count", "bytes", "time", "expr", "scaled", "unit"); err != nil {
			return err
		}
		p := &param{name: name, unit: 1}
		kinds := 0
		for _, k := range []string{"count", "bytes", "time", "expr"} {
			if _, ok := pm[k]; ok {
				kinds++
			}
		}
		if kinds != 1 {
			return fmt.Errorf("params.%s: exactly one of count/bytes/time/expr required", name)
		}
		if raw, ok := pm["scaled"]; ok {
			if p.scaled, err = asBool(raw, "params."+name+".scaled"); err != nil {
				return err
			}
		}
		switch {
		case pm["count"] != nil:
			p.kind = paramCount
			n, err := constVal(pm["count"], "params."+name+".count")
			if err != nil {
				return err
			}
			if err := p.set(n); err != nil {
				return fmt.Errorf("params.%s.count: %v", name, err)
			}
		case pm["bytes"] != nil:
			p.kind = paramBytes
			n, err := constVal(pm["bytes"], "params."+name+".bytes")
			if err != nil {
				return err
			}
			if err := p.set(n); err != nil {
				return fmt.Errorf("params.%s.bytes: %v", name, err)
			}
			if raw, ok := pm["unit"]; ok {
				u, err := constVal(raw, "params."+name+".unit")
				if err != nil {
					return err
				}
				if u < 1 {
					return fmt.Errorf("params.%s.unit: must be positive", name)
				}
				p.unit = u
			}
		case pm["time"] != nil:
			p.kind = paramTime
			t, err := asDuration(pm["time"], "params."+name+".time")
			if err != nil {
				return err
			}
			if err := p.set(int64(t)); err != nil {
				return fmt.Errorf("params.%s.time: %v", name, err)
			}
			if p.scaled {
				return fmt.Errorf("params.%s: time params cannot be scaled", name)
			}
		default:
			p.kind = paramExpr
			src, err := asString(pm["expr"], "params."+name+".expr")
			if err != nil {
				return err
			}
			if p.e, err = parseExpr(src); err != nil {
				return fmt.Errorf("params.%s: %v", name, err)
			}
			if p.scaled {
				return fmt.Errorf("params.%s: expr params cannot be scaled", name)
			}
		}
		if p.scaled && pm["count"] == nil && pm["bytes"] == nil {
			return fmt.Errorf("params.%s: scaled requires count or bytes", name)
		}
		d.params[name] = p
	}
	// Evaluation order: value params (any order — they are constants),
	// then expr params name-sorted; expr params may reference value
	// params and builtins but not each other.
	for _, name := range names {
		if d.params[name].kind != paramExpr {
			d.ordered = append(d.ordered, d.params[name])
		}
	}
	for _, name := range names {
		p := d.params[name]
		if p.kind != paramExpr {
			continue
		}
		var badIdent string
		p.e.idents(func(id string) {
			if badIdent != "" {
				return
			}
			if ref, ok := d.params[id]; ok {
				if ref.kind == paramExpr {
					badIdent = id + " (expr params cannot reference each other)"
				}
				return
			}
			if !paramBuiltin(id) {
				badIdent = id
			}
		})
		if badIdent != "" {
			return fmt.Errorf("params.%s: unknown identifier %s", name, badIdent)
		}
		d.ordered = append(d.ordered, p)
	}
	return nil
}

// paramBuiltin reports whether id is available to param/setup expressions.
func paramBuiltin(id string) bool {
	switch id {
	case "ranks", "rpn", "nodes", "optimized":
		return true
	}
	return false
}

// constVal evaluates a count/bytes scalar: an integer, or a string
// expression over literals only ("16MiB", "5632KiB").
func constVal(v interface{}, where string) (int64, error) {
	e, err := asExprVal(v, where)
	if err != nil {
		return 0, err
	}
	bad := ""
	e.idents(func(id string) { bad = id })
	if bad != "" {
		return 0, fmt.Errorf("%s: identifiers not allowed here (%q)", where, bad)
	}
	n, err := e.eval(func(string) (int64, bool) { return 0, false })
	if err != nil {
		return 0, fmt.Errorf("%s: %v", where, err)
	}
	return n, nil
}

func (d *Doc) buildDirs(v interface{}) error {
	m, err := asObj(v, "dirs")
	if err != nil {
		return err
	}
	if len(m) > maxDirs {
		return fmt.Errorf("dirs: %d dirs exceed the %d cap", len(m), maxDirs)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !identRe.MatchString(name) {
			return fmt.Errorf("dirs: bad dir name %q", name)
		}
		dm, err := asObj(m[name], "dirs."+name)
		if err != nil {
			return err
		}
		if err := checkKeys(dm, "dirs."+name, "path", "optimized"); err != nil {
			return err
		}
		src, err := asString(dm["path"], "dirs."+name+".path")
		if err != nil {
			return err
		}
		dr := &dir{name: name}
		if dr.base, err = parsePath(src, false); err != nil {
			return fmt.Errorf("dirs.%s: %v", name, err)
		}
		if raw, ok := dm["optimized"]; ok {
			osrc, err := asString(raw, "dirs."+name+".optimized")
			if err != nil {
				return err
			}
			if dr.optimized, err = parsePath(osrc, false); err != nil {
				return fmt.Errorf("dirs.%s: %v", name, err)
			}
		}
		d.dirs[name] = dr
	}
	return nil
}

func (d *Doc) buildBarriers(v interface{}) error {
	l, err := asList(v, "barriers")
	if err != nil {
		return err
	}
	if len(l) > maxBarriers {
		return fmt.Errorf("barriers: %d barriers exceed the %d cap", len(l), maxBarriers)
	}
	seen := map[string]bool{}
	for i, raw := range l {
		name, err := asString(raw, fmt.Sprintf("barriers[%d]", i))
		if err != nil {
			return err
		}
		if !identRe.MatchString(name) {
			return fmt.Errorf("barriers[%d]: bad barrier name %q", i, name)
		}
		if seen[name] {
			return fmt.Errorf("barriers[%d]: duplicate barrier %q", i, name)
		}
		seen[name] = true
		d.barriers = append(d.barriers, name)
	}
	return nil
}

func (d *Doc) buildSetup(v interface{}) error {
	l, err := asList(v, "setup")
	if err != nil {
		return err
	}
	if len(l) > maxSetupSteps {
		return fmt.Errorf("setup: %d steps exceed the %d cap", len(l), maxSetupSteps)
	}
	for i, raw := range l {
		where := fmt.Sprintf("setup[%d]", i)
		m, err := asObj(raw, where)
		if err != nil {
			return err
		}
		switch {
		case m["files"] != nil:
			if err := checkKeys(m, where, "files"); err != nil {
				return err
			}
			fm, err := asObj(m["files"], where+".files")
			if err != nil {
				return err
			}
			if err := checkKeys(fm, where+".files", "path", "count", "size", "per_node", "on_node"); err != nil {
				return err
			}
			st := &setupStep{}
			src, err := asString(fm["path"], where+".files.path")
			if err != nil {
				return err
			}
			if st.path, err = parsePath(src, true); err != nil {
				return fmt.Errorf("%s.files: %v", where, err)
			}
			if raw, ok := fm["count"]; ok {
				if st.count, err = asExprVal(raw, where+".files.count"); err != nil {
					return err
				}
			}
			if fm["size"] == nil {
				return fmt.Errorf("%s.files: size required", where)
			}
			if st.size, err = asExprVal(fm["size"], where+".files.size"); err != nil {
				return err
			}
			if raw, ok := fm["per_node"]; ok {
				if st.perNode, err = asBool(raw, where+".files.per_node"); err != nil {
					return err
				}
			}
			if raw, ok := fm["on_node"]; ok {
				if st.onNode, err = asBool(raw, where+".files.on_node"); err != nil {
					return err
				}
			}
			if st.onNode && !st.perNode {
				return fmt.Errorf("%s.files: on_node requires per_node", where)
			}
			if err := d.checkSetupIdents(st, where); err != nil {
				return err
			}
			d.setup = append(d.setup, st)
		case m["sample"] != nil:
			if err := checkKeys(m, where, "sample"); err != nil {
				return err
			}
			sm, err := asObj(m["sample"], where+".sample")
			if err != nil {
				return err
			}
			if err := checkKeys(sm, where+".sample", "name", "dist", "a", "b", "n"); err != nil {
				return err
			}
			st := &setupStep{sampleN: 2000}
			if st.sample, err = asString(sm["name"], where+".sample.name"); err != nil {
				return err
			}
			if st.sample == "" || len(st.sample) > 64 {
				return fmt.Errorf("%s.sample: bad sample name", where)
			}
			if st.dist, err = asString(sm["dist"], where+".sample.dist"); err != nil {
				return err
			}
			switch st.dist {
			case "normal", "gamma", "uniform":
			default:
				return fmt.Errorf("%s.sample: unknown distribution %q", where, st.dist)
			}
			if st.a, err = asFloat(sm["a"], where+".sample.a"); err != nil {
				return err
			}
			if st.b, err = asFloat(sm["b"], where+".sample.b"); err != nil {
				return err
			}
			if raw, ok := sm["n"]; ok {
				n, err := asInt(raw, where+".sample.n")
				if err != nil {
					return err
				}
				if n < 1 || n > maxSampleN {
					return fmt.Errorf("%s.sample.n: %d out of range", where, n)
				}
				st.sampleN = int(n)
			}
			d.setup = append(d.setup, st)
		default:
			return fmt.Errorf("%s: want a files or sample step", where)
		}
	}
	return nil
}

// checkSetupIdents validates the identifiers a setup files-step may use:
// params, topology builtins, and the staging loop vars i / node.
func (d *Doc) checkSetupIdents(st *setupStep, where string) error {
	check := func(e *expr) error {
		if e == nil {
			return nil
		}
		bad := ""
		e.idents(func(id string) {
			if bad != "" {
				return
			}
			if _, ok := d.params[id]; ok {
				return
			}
			if paramBuiltin(id) || id == "i" || id == "node" {
				return
			}
			bad = id
		})
		if bad != "" {
			return fmt.Errorf("%s: unknown identifier %q", where, bad)
		}
		return nil
	}
	if err := check(st.count); err != nil {
		return err
	}
	if err := check(st.size); err != nil {
		return err
	}
	var perr error
	st.path.idents(func(id string) {
		if perr != nil {
			return
		}
		if _, ok := d.params[id]; ok {
			return
		}
		if paramBuiltin(id) || id == "i" || id == "node" {
			return
		}
		perr = fmt.Errorf("%s: unknown identifier %q in path", where, id)
	})
	if perr != nil {
		return perr
	}
	if st.path.dir != "" {
		if _, ok := d.dirs[st.path.dir]; !ok {
			return fmt.Errorf("%s: unknown dir @%s", where, st.path.dir)
		}
	}
	return nil
}
