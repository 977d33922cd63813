package spec

import (
	"fmt"
	"strconv"
	"strings"

	"vani/internal/cluster"
	"vani/internal/workloads"
)

const maxPathLen = 1024

// pathT is a compiled path template: literal segments interleaved with
// `${expr}` substitutions, optionally zero-padded (`${rank:04}`), and an
// optional leading `@dir/` reference. The dir is a machine dir (`@pfs`,
// `@bb`: the run's Spec.Machine.PFSDir and SharedBBDir) or one of the spec's
// dirs, which pick their optimized variant per run.
type pathT struct {
	src  string
	dir  string // "" when the path is absolute
	segs []pathSeg
}

type pathSeg struct {
	lit string // literal text when expr is nil
	e   *expr
	pad int // zero-pad width, 0 = none
}

// machineDir reports whether a dir name is one of the machine's.
func machineDir(name string) bool { return name == "pfs" || name == "bb" }

// machineBase is a machine dir's path, "" when the machine has none.
func machineBase(m *cluster.Machine, name string) string {
	if name == "pfs" {
		return m.PFSDir
	}
	return m.SharedBBDir
}

// parseDirPath compiles a dir's template, which may start from a machine
// dir but not from another of the spec's dirs.
func parseDirPath(src string) (*pathT, error) {
	t, err := parsePath(src)
	if err == nil && t.dir != "" && !machineDir(t.dir) {
		err = fmt.Errorf("path %q: a dir may only start from @pfs or @bb", src)
	}
	return t, err
}

// checkDir checks that a template's dir reference names a dir.
func (d *Doc) checkDir(t *pathT, where string) error {
	if t.dir == "" || machineDir(t.dir) {
		return nil
	}
	if _, ok := d.dirs[t.dir]; !ok {
		return fmt.Errorf("%s: unknown dir @%s", where, t.dir)
	}
	return nil
}

// parsePath compiles a path template.
func parsePath(src string) (*pathT, error) {
	if src == "" {
		return nil, fmt.Errorf("empty path")
	}
	if len(src) > maxPathLen {
		return nil, fmt.Errorf("path longer than %d bytes", maxPathLen)
	}
	t := &pathT{src: src}
	rest := src
	if strings.HasPrefix(rest, "@") {
		name := rest[1:]
		if i := strings.IndexByte(name, '/'); i >= 0 {
			rest = name[i:]
			name = name[:i]
		} else {
			rest = ""
		}
		if !identRe.MatchString(name) {
			return nil, fmt.Errorf("path %q: bad dir reference %q", src, name)
		}
		t.dir = name
	}
	for len(rest) > 0 {
		i := strings.Index(rest, "${")
		if i < 0 {
			t.segs = append(t.segs, pathSeg{lit: rest})
			break
		}
		if i > 0 {
			t.segs = append(t.segs, pathSeg{lit: rest[:i]})
		}
		rest = rest[i+2:]
		j := strings.IndexByte(rest, '}')
		if j < 0 {
			return nil, fmt.Errorf("path %q: unterminated ${", src)
		}
		seg, err := parsePathExpr(rest[:j])
		if err != nil {
			return nil, fmt.Errorf("path %q: %v", src, err)
		}
		t.segs = append(t.segs, seg)
		rest = rest[j+1:]
	}
	return t, nil
}

// parsePathExpr splits an optional `:NN` zero-pad suffix off a
// substitution body. The suffix is only taken when the prefix before the
// last colon parses as an expression on its own, so ternaries keep their
// colons.
func parsePathExpr(body string) (pathSeg, error) {
	if i := strings.LastIndexByte(body, ':'); i >= 0 {
		digits := body[i+1:]
		if allDigits(digits) && digits != "" {
			if e, err := parseExpr(body[:i]); err == nil {
				pad, err := strconv.Atoi(digits)
				if err != nil || pad > 32 {
					return pathSeg{}, fmt.Errorf("bad pad width %q", digits)
				}
				return pathSeg{e: e, pad: pad}, nil
			}
		}
	}
	e, err := parseExpr(body)
	if err != nil {
		return pathSeg{}, err
	}
	return pathSeg{e: e}, nil
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// idents calls f for every identifier the template references.
func (t *pathT) idents(f func(string)) {
	for _, s := range t.segs {
		if s.e != nil {
			s.e.idents(f)
		}
	}
}

// appendSegs renders the template's segments, not its dir, onto b.
func (t *pathT) appendSegs(b []byte, env func(string) (int64, bool)) ([]byte, error) {
	for _, s := range t.segs {
		if s.e == nil {
			b = append(b, s.lit...)
			continue
		}
		v, err := s.e.eval(env)
		if err != nil {
			return b, fmt.Errorf("path %q: %v", t.src, err)
		}
		b = appendPadded(b, v, s.pad)
	}
	return b, nil
}

// appendPadded appends v in decimal, zero-padded to pad characters with the
// sign counted, as fmt's %0*d does.
func appendPadded(b []byte, v int64, pad int) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
		pad--
	}
	digits := 1
	for x := u; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < pad; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendUint(b, u, 10)
}

// renderer renders path templates into one reused buffer and returns the
// string it returned last when the bytes match, so a path that repeats —
// the same file described, opened, read and closed — allocates nothing.
type renderer struct {
	doc  *Doc
	spec *workloads.Spec
	buf  []byte
	last string
}

// render evaluates t under env; a failure ends the run.
func (r *renderer) render(t *pathT, env func(string) (int64, bool)) string {
	b, err := r.appendPath(r.buf[:0], t, env)
	r.buf = b
	if err != nil {
		panic(failure{fmt.Errorf("spec %s: %v", r.doc.Name, err)})
	}
	if r.last != string(b) {
		r.last = string(b)
	}
	return r.last
}

// appendPath renders t onto b: its dir's base, then its segments. A spec
// dir takes its optimized variant in an optimized run unless that variant
// starts from a machine dir this machine lacks.
func (r *renderer) appendPath(b []byte, t *pathT, env func(string) (int64, bool)) ([]byte, error) {
	m := &r.spec.Machine
	switch {
	case t.dir == "":
	case machineDir(t.dir):
		base := machineBase(m, t.dir)
		if base == "" {
			return b, fmt.Errorf("path %q: the machine has no @%s", t.src, t.dir)
		}
		b = append(b, base...)
	default:
		dr := r.doc.dirs[t.dir]
		dt := dr.base
		if o := dr.optimized; r.spec.Optimized && o != nil && (o.dir == "" || machineBase(m, o.dir) != "") {
			dt = o
		}
		var err error
		if b, err = r.appendPath(b, dt, env); err != nil {
			return b, err
		}
	}
	return t.appendSegs(b, env)
}
