package vani

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestArchitecture holds the tree to the rules that keep one of each: one
// path from a trace to its report, one description per workload, one layer
// per job, and a DESIGN.md that names what is there. Every rule runs over
// the module and over fixtures of its own that break it, so a rule that
// stops matching fails here as surely as a violation does.
func TestArchitecture(t *testing.T) {
	repo := loadTree(t)
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			for _, fx := range r.fixtures {
				if len(r.check(fx)) == 0 {
					t.Errorf("fixture %s is not flagged", fx.paths)
				}
			}
			for _, v := range r.check(repo) {
				t.Errorf("%s: %s", v, r.why)
			}
		})
	}
}

type archRule struct {
	name     string
	why      string // what the rule keeps, printed with each violation
	check    func(*tree) []string
	fixtures []*tree // each breaks the rule
}

var archRules = []archRule{
	{
		name:     "No scratch dirs committed",
		why:      "scratch directory committed; remove it (see .gitignore)",
		check:    tracked(`^(tmppoc|scratch|tmp)/`),
		fixtures: []*tree{fx("scratch/poc.go", "package poc\n"), fx("tmp/out.trc", "")},
	},
	{
		// cm1, cosmoflow and montage-mpi are their golden specs
		// (internal/spec/golden); a Go twin must not come back, not even
		// through a test helper.
		name:     "One description per workload",
		why:      "a Go generator for a workload that has a golden spec",
		check:    grep(isGo, `New(CM1|CosmoFlow|MontageMPI)\b|workloads\.(CM1|CosmoFlow|MontageMPI)\b`),
		fixtures: []*tree{fx("internal/advisor/x_test.go", "package advisor\n\nvar w = workloads.CM1{}\n")},
	},
	{
		// Simulated processes are iter.Pull coroutines: a Goexit inside one
		// takes Run's caller down with it, and a stopped engine unwinds a
		// process by panicking, not by Goexit. Nor does a process wait on a
		// channel of its own to be woken.
		name:  "No Goexit or wake channel in the simulator",
		why:   "internal/sim hands off by coroutine switch only",
		check: grep(under("internal/sim"), `runtime\.Goexit|wake +chan`),
		fixtures: []*tree{
			fx("internal/sim/x.go", "package sim\n\nfunc stop() { runtime.Goexit() }\n"),
			fx("internal/sim/x.go", "package sim\n\ntype waiter struct{ wake  chan struct{} }\n"),
		},
	},
	{
		// A filtered block's rows are chosen down one path: selectRows tests
		// every dimension the block constrains on its decoded rows.
		name:     "One row-selection path in colstore",
		why:      "colstore selects filtered rows through selectRows only",
		check:    grep(under("internal/colstore"), `compressedSel|compressedKeep|synthCol|keepBuf|selectRowsResidual`),
		fixtures: []*tree{fx("internal/colstore/x.go", "package colstore\n\nfunc synthCol() {}\n")},
	},
	{
		// A block is read one way: its segments decode into columns. Filters
		// and key-column ranges read those rows; nothing reads a segment's
		// runs, codes or header in place.
		name: "One decode path for the read side",
		why:  "filters and key-column ranges read decoded rows, not encoded segments",
		check: grep(func(p string) bool {
			return isNonTestGo(p) && (under("internal/trace")(p) || under("internal/colstore")(p))
		}, `SegCursor|passRuns|decodeSegRuns|headerRange|KernelOp|KPredicate|KGroupAgg`),
		fixtures: []*tree{
			fx("internal/trace/segcursor.go", "package trace\n\ntype SegCursor struct{}\n"),
			fx("internal/colstore/kernels.go", "package colstore\n\nconst KGroupAgg = 1\n"),
			fx("internal/colstore/scan.go", "package colstore\n\n// passRuns evaluates runs.\n"),
		},
	},
	{
		// Every vanid upload lands in the repository, and every whole-log
		// read goes through BlockReader's footer-checked ReadBlock + Decode.
		name:  "One way in for a trace log",
		why:   "uploads land in the repository; whole-log reads go through BlockReader",
		check: grep(isGoOrSh, `type Scanner|trace\.NewScanner|decodeBlockSeq|SpoolDir|spool-dir|traceLoc`),
		fixtures: []*tree{
			fx("internal/trace/x.go", "package trace\n\ntype Scanner struct{}\n"),
			fx("scripts/x.sh", "vanid -spool-dir /tmp/spool\n"),
		},
	},
	{
		// Record appends every event to one log and Finish radix-sorts it.
		name:     "One ordering path in the tracer",
		why:      "the tracer orders its one log in Finish's radix sort only",
		check:    grep(under("internal/trace"), `mergeShards|mergeCursor|pagePool|func \(s \*shard\)`),
		fixtures: []*tree{fx("internal/trace/x.go", "package trace\n\nfunc mergeShards() {}\n")},
	},
	{
		// A simulated file is resolved once per open: data and metadata
		// calls after it go through the *storage.File handle, never by path.
		name:     "One handle per open file",
		why:      "storage.System takes a path only to Open, Stat, Mkdir, FileSize and Materialize",
		check:    grep(under("internal/storage"), `func \(s \*System\) (Read|Write|Close|Sync|Seek)\(`),
		fixtures: []*tree{fx("internal/storage/x.go", "package storage\n\nfunc (s *System) Read(path string) {}\n")},
	},
	{
		// The root benchmarks are the paper's tables, figures and ablations
		// (per-layer throughput is bench/'s), a sweep document runs through
		// `vani sweep`, code that only tests reach is deleted, and every
		// workload is a document: no workload interface, no Go generator or
		// Go example, no spec.generators, no DAG engine beside the tasks
		// block.
		name: "One of each",
		why:  "a second path beside the one the programs use",
		check: all(
			grep(isGo, `internal/darshan|CompareCharacterizations|func Compare\(`),
			declared(is("bench_test.go"), func(d decl) bool {
				return d.kind == "func" && d.recv == "" && strings.HasPrefix(d.name, "Benchmark") && !paperBenchmark.MatchString(d.name)
			}),
			tracked(`^examples/sweep-casestudy/.*\.go$`),
			declared(isGo, func(d decl) bool {
				if d.kind == "func" && d.recv == "" && strings.HasPrefix(d.name, "New") {
					return goGenerator.MatchString(d.name[len("New"):])
				}
				_, isStruct := d.typ.(*ast.StructType)
				return d.kind == "type" && isStruct && goGenerator.MatchString(d.name)
			}),
			tracked(`^internal/workflow/`),
			declared(under("internal/spec"), func(d decl) bool { return d.kind == "var" && d.name == "generators" }),
			declared(isNonTestGo, func(d decl) bool {
				_, isIface := d.typ.(*ast.InterfaceType)
				return d.kind == "type" && isIface && d.name == "Workload"
			}),
			tracked(`^examples/custom-workload/.*\.go$`),
			declared(isNonTestGo, func(d decl) bool {
				if d.path == "internal/sim/engine.go" && d.recv == "*Engine" && d.name == "Spawn" {
					return false // the kernel's own
				}
				return d.kind == "func" && d.recv != "" && (d.name == "Setup" || d.name == "Spawn")
			}),
		),
		fixtures: []*tree{
			fx("internal/core/x.go", "package core\n\nfunc Compare(a, b *Characterization) {}\n"),
			fx("bench_test.go", "package vani\n\nfunc BenchmarkCodec(b *testing.B) {}\n"),
			fx("examples/sweep-casestudy/main.go", "package main\n"),
			fx("internal/workloads/hacc.go", "package workloads\n\nfunc NewHACC() {}\n"),
			fx("internal/workloads/jag_test.go", "package workloads\n\ntype JAG struct{}\n"),
			fx("internal/workflow/dag.go", "package workflow\n"),
			fx("internal/spec/catalog_test.go", "package spec\n\nvar generators = 0\n"),
			fx("internal/spec/x.go", "package spec\n\ntype Workload interface{ Run() }\n"),
			fx("examples/custom-workload/main.go", "package main\n"),
			fx("internal/spec/x.go", "package spec\n\nfunc (w *Work) Setup() {}\n"),
			fx("internal/sim/proc.go", "package sim\n\nfunc (e *Engine) Spawn() {}\n"),
		},
	},
	{
		name:  "Import layering",
		why:   "the kernel, statistics, machine, YAML and worker-pool packages sit below everything; trace below all but parallel; only internal/server reaches up to the façade",
		check: layering,
		fixtures: []*tree{
			fx("internal/sim/x.go", "package sim\n\nimport \"vani/internal/trace\"\n"),
			fx("internal/parallel/x.go", "package parallel\n\nimport \"vani\"\n"),
			fx("internal/trace/x.go", "package trace\n\nimport \"vani/internal/core\"\n"),
			fx("internal/repo/x.go", "package repo\n\nimport (\n\t\"os\"\n\n\t\"vani\"\n)\n"),
		},
	},
	{
		name:  "DESIGN inventory names every package",
		why:   "DESIGN.md §3 has one row per package, and each row's key names are declared in it",
		check: inventory,
		fixtures: []*tree{
			fx("DESIGN.md", inventoryFixture, "internal/sim/engine.go", "package sim\n\ntype Engine struct{}\n\nfunc Run() {}\n",
				"internal/stats/stats.go", "package stats\n"),
			fx("DESIGN.md", inventoryFixture, "internal/sim/engine.go", "package sim\n\ntype Engine struct{}\n\nfunc (e *Engine) Run() {}\n"),
		},
	},
}

var (
	paperBenchmark = regexp.MustCompile(`^Benchmark(Table[0-9]+|Figure[0-9]+|Ablation|RecorderOverhead)`)
	goGenerator    = regexp.MustCompile(`^(HACC|IOR|JAG|MontagePegasus)$`)
)

const inventoryFixture = "## 3. System inventory\n\n| Package | Role | Key types |\n|---|---|---|\n" +
	"| `internal/sim` | Kernel | `Engine`, `Run` |\n\n## 4. Next\n"

// tree is what the rules read: the module's files by slash path from its
// root, and the files git tracks.
type tree struct {
	root    string   // "" for a fixture, whose files are all in src
	paths   []string // every file, sorted
	src     map[string][]byte
	tracked []string
	gitErr  error
	fset    *token.FileSet
	parsed  map[string]*ast.File
}

// loadTree lists the module as the go tool walks it, skipping directories
// whose names start with "." or "_" and this file, and asks git for the
// tracked files.
func loadTree(t *testing.T) *tree {
	t.Helper()
	tr := &tree{root: ".", src: map[string][]byte{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if p != "architecture_test.go" && d.Type().IsRegular() {
			tr.paths = append(tr.paths, filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("git", "ls-files", "-z")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		tr.gitErr = fmt.Errorf("git ls-files cannot list the tree: %v %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	for _, p := range strings.Split(string(out), "\x00") {
		if p != "" {
			tr.tracked = append(tr.tracked, p)
		}
	}
	return tr
}

// fx is a fixture: the given path, content pairs, every file tracked.
func fx(kv ...string) *tree {
	tr := &tree{src: map[string][]byte{}}
	for i := 0; i < len(kv); i += 2 {
		tr.paths = append(tr.paths, kv[i])
		tr.src[kv[i]] = []byte(kv[i+1])
	}
	sort.Strings(tr.paths)
	tr.tracked = tr.paths
	return tr
}

func (tr *tree) read(p string) ([]byte, error) {
	if b, ok := tr.src[p]; ok || tr.root == "" {
		return b, nil
	}
	b, err := os.ReadFile(filepath.Join(tr.root, filepath.FromSlash(p)))
	if err == nil {
		tr.src[p] = b
	}
	return b, err
}

func (tr *tree) parse(p string) (*ast.File, error) {
	if f := tr.parsed[p]; f != nil {
		return f, nil
	}
	b, err := tr.read(p)
	if err != nil {
		return nil, err
	}
	if tr.fset == nil {
		tr.fset, tr.parsed = token.NewFileSet(), map[string]*ast.File{}
	}
	f, err := parser.ParseFile(tr.fset, p, b, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	tr.parsed[p] = f
	return f, nil
}

// Scopes: which paths a rule reads, as the pathspecs of its git grep did.

func isGo(p string) bool        { return strings.HasSuffix(p, ".go") }
func isGoOrSh(p string) bool    { return isGo(p) || strings.HasSuffix(p, ".sh") }
func isNonTestGo(p string) bool { return isGo(p) && !strings.HasSuffix(p, "_test.go") }

func is(name string) func(string) bool { return func(p string) bool { return p == name } }

func under(dir string) func(string) bool {
	return func(p string) bool { return strings.HasPrefix(p, dir+"/") }
}

// all joins rules: it flags whatever any of them flags.
func all(checks ...func(*tree) []string) func(*tree) []string {
	return func(tr *tree) (out []string) {
		for _, c := range checks {
			out = append(out, c(tr)...)
		}
		return out
	}
}

// grep flags every line that re matches in a file in scope.
func grep(scope func(string) bool, re string) func(*tree) []string {
	rx := regexp.MustCompile(re)
	return func(tr *tree) (out []string) {
		for _, p := range tr.paths {
			if !scope(p) {
				continue
			}
			b, err := tr.read(p)
			if err != nil {
				out = append(out, err.Error())
				continue
			}
			for i, line := range strings.Split(string(b), "\n") {
				if rx.MatchString(line) {
					out = append(out, fmt.Sprintf("%s:%d: %s", p, i+1, strings.TrimSpace(line)))
				}
			}
		}
		return out
	}
}

// tracked flags every tracked file whose path re matches. A tree git
// cannot list fails the rule.
func tracked(re string) func(*tree) []string {
	rx := regexp.MustCompile(re)
	return func(tr *tree) (out []string) {
		if tr.gitErr != nil {
			return []string{tr.gitErr.Error()}
		}
		for _, p := range tr.tracked {
			if rx.MatchString(p) {
				out = append(out, p+": tracked")
			}
		}
		return out
	}
}

// decl is one top-level name a Go file declares.
type decl struct {
	path, name string
	kind       string   // "func", "type", "var" or "const"
	recv       string   // a method's receiver type, e.g. "*Engine"
	typ        ast.Expr // a type's definition
	pos        token.Pos
}

// decls returns the top-level declarations of the Go files in scope, and
// the files that do not parse.
func (tr *tree) decls(scope func(string) bool) (ds []decl, errs []string) {
	for _, p := range tr.paths {
		if !isGo(p) || !scope(p) {
			continue
		}
		f, err := tr.parse(p)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fd := decl{path: p, name: d.Name.Name, kind: "func", pos: d.Pos()}
				if d.Recv != nil && len(d.Recv.List) > 0 {
					fd.recv = recvType(d.Recv.List[0].Type)
				}
				ds = append(ds, fd)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						ds = append(ds, decl{path: p, name: s.Name.Name, kind: "type", typ: s.Type, pos: s.Pos()})
					case *ast.ValueSpec:
						for _, n := range s.Names {
							ds = append(ds, decl{path: p, name: n.Name, kind: d.Tok.String(), pos: n.Pos()})
						}
					}
				}
			}
		}
	}
	return ds, errs
}

func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// declared flags every top-level declaration in scope that bad picks.
func declared(scope func(string) bool, bad func(decl) bool) func(*tree) []string {
	return func(tr *tree) []string {
		ds, out := tr.decls(scope)
		for _, d := range ds {
			if bad(d) {
				name := d.name
				if d.recv != "" {
					name = "(" + d.recv + ")." + name
				}
				out = append(out, fmt.Sprintf("%s: %s %s", tr.fset.Position(d.pos), d.kind, name))
			}
		}
		return out
	}
}

// leafPackages import no package of the module.
var leafPackages = map[string]bool{
	"internal/sim": true, "internal/stats": true, "internal/cluster": true,
	"internal/yamlenc": true, "internal/parallel": true,
}

// layering flags an import that reaches above its layer. The rule reads
// only non-test files: test files are not part of the graph a program
// links.
func layering(tr *tree) (out []string) {
	for _, p := range tr.paths {
		if !isNonTestGo(p) {
			continue
		}
		f, err := tr.parse(p)
		if err != nil {
			out = append(out, err.Error())
			continue
		}
		dir := path.Dir(p)
		for _, im := range f.Imports {
			ip, err := strconv.Unquote(im.Path.Value)
			if err != nil || (ip != "vani" && !strings.HasPrefix(ip, "vani/")) {
				continue
			}
			var broken string
			switch {
			case leafPackages[dir]:
				broken = "imports no package of the module"
			case dir == "internal/trace" && ip != "vani/internal/parallel":
				broken = "imports only internal/parallel"
			case ip == "vani" && strings.HasPrefix(dir, "internal/") && dir != "internal/server":
				broken = "is below the façade; only internal/server imports vani"
			default:
				continue
			}
			out = append(out, fmt.Sprintf("%s: imports %q, but %s %s", tr.fset.Position(im.Pos()), ip, dir, broken))
		}
	}
	return out
}

// inventory checks DESIGN.md §3 against the packages: every directory with
// a non-test Go file (testdata aside) has a row whose first cell names it
// in backticks (`vani` for the root), and every backticked name in a
// row's last cell is declared in that package's non-test files.
func inventory(tr *tree) (out []string) {
	b, err := tr.read("DESIGN.md")
	if err != nil {
		return []string{err.Error()}
	}
	type row struct {
		line int
		keys []string
	}
	rows := map[string]row{}
	ticked := regexp.MustCompile("`([^`]+)`")
	in := false
	for i, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## 3. ")
			continue
		}
		cells := strings.Split(line, "|")
		if !in || len(cells) < 4 || strings.HasPrefix(cells[1], "---") || strings.TrimSpace(cells[1]) == "Package" {
			continue
		}
		names := ticked.FindAllStringSubmatch(cells[1], -1)
		if len(names) != 1 {
			out = append(out, fmt.Sprintf("DESIGN.md:%d: the first cell names no one package", i+1))
			continue
		}
		dir := names[0][1]
		if dir == "vani" {
			dir = "."
		}
		r := row{line: i + 1}
		for _, k := range ticked.FindAllStringSubmatch(cells[len(cells)-2], -1) {
			r.keys = append(r.keys, k[1])
		}
		rows[dir] = r
	}

	pkgFile := func(p string) bool { return isNonTestGo(p) && !strings.Contains("/"+p, "/testdata/") }
	names := map[string]map[string]bool{} // package dir -> its top-level names
	for _, p := range tr.paths {
		if pkgFile(p) {
			names[path.Dir(p)] = map[string]bool{}
		}
	}
	ds, errs := tr.decls(pkgFile)
	out = append(out, errs...)
	for _, d := range ds {
		if d.recv == "" {
			names[path.Dir(d.path)][d.name] = true
		}
	}
	for dir := range names {
		if _, ok := rows[dir]; !ok {
			out = append(out, fmt.Sprintf("%s: no row in DESIGN.md §3", dir))
		}
	}
	for dir, r := range rows {
		if names[dir] == nil {
			out = append(out, fmt.Sprintf("DESIGN.md:%d: %s is not a package", r.line, dir))
		}
		for _, k := range r.keys {
			if !names[dir][k] {
				out = append(out, fmt.Sprintf("DESIGN.md:%d: %s declares no %s", r.line, dir, k))
			}
		}
	}
	sort.Strings(out)
	return out
}
