package spec

import (
	"fmt"
	"os"
	"sort"

	"vani/internal/workloads"
)

// The sweep document: a workload (an inline DSL doc or a catalog name) plus
// a parameter grid. This file parses and validates it and applies a grid
// point to a run spec; internal/sweep runs the grid and reduces the
// outcomes into the comparative report.

// Bounds on sweep shape.
const (
	maxAxes          = 8
	maxValuesPerAxis = 16
	maxPoints        = 256
)

// sweepAxes maps grid parameter names to how a value applies to a run
// spec. kind "choice" values are enumerated; "size" values are byte
// expressions; "bool" values are booleans.
var sweepAxes = map[string]string{
	"staging":             "choice", // pfs | node-local
	"stripe_size":         "size",   // storage.PFSStripeSize
	"stdio_buffer":        "size",   // iface.StdioBufSize
	"readahead":           "size",   // storage.ReadAhead (0 disables)
	"hdf5_chunked":        "bool",   // iface.HDF5Chunked
	"relaxed_consistency": "bool",   // storage.RelaxedConsistency
	"write_compression":   "bool",   // iface.CompressionEnabled
	"cache":               "bool",   // storage.CacheEnabled
}

// Sweep is a validated sweep document.
type Sweep struct {
	Name string
	Base SweepBase

	axes         []sweepAxis
	doc          *Doc   // inline workload, or
	workloadName string // a catalog name
}

// SweepBase overrides the workload's default run spec for every point.
type SweepBase struct {
	Nodes        int
	RanksPerNode int
	Scale        float64
	Seed         int64
}

type sweepAxis struct {
	param  string
	kind   string
	labels []string // canonical value strings, in declared order
	sizes  []int64  // parsed byte values (size axes)
	bools  []bool   // parsed booleans (bool axes)
}

// ParseSweep decodes and validates a sweep document (YAML or JSON).
func ParseSweep(data []byte) (*Sweep, error) {
	tree, err := decodeTree(data)
	if err != nil {
		return nil, err
	}
	sw, err := buildSweep(tree)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return sw, nil
}

// ParseSweepFile reads and parses a sweep document from disk.
func ParseSweepFile(path string) (*Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sw, err := ParseSweep(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sw, nil
}

func buildSweep(m map[string]interface{}) (*Sweep, error) {
	if err := checkKeys(m, "sweep", "version", "name", "base", "grid", "workload"); err != nil {
		return nil, err
	}
	v, err := asInt(m["version"], "version")
	if err != nil {
		return nil, err
	}
	if v != 1 {
		return nil, fmt.Errorf("version: unsupported version %d", v)
	}
	sw := &Sweep{}
	if sw.Name, err = asString(m["name"], "name"); err != nil {
		return nil, err
	}
	if !nameRe.MatchString(sw.Name) {
		return nil, fmt.Errorf("name: bad sweep name %q", sw.Name)
	}
	if err := sw.buildBase(m["base"]); err != nil {
		return nil, err
	}
	if err := sw.buildGrid(m["grid"]); err != nil {
		return nil, err
	}
	switch w := m["workload"].(type) {
	case string:
		if !nameRe.MatchString(w) {
			return nil, fmt.Errorf("workload: bad workload name %q", w)
		}
		sw.workloadName = w
	case map[string]interface{}:
		doc, err := buildDoc(w)
		if err != nil {
			return nil, fmt.Errorf("workload: %v", err)
		}
		sw.doc = doc
	default:
		return nil, fmt.Errorf("workload: got %T, want a workload name or an inline spec", m["workload"])
	}
	return sw, nil
}

func (sw *Sweep) buildBase(v interface{}) error {
	m, err := asObj(v, "base")
	if err != nil {
		return err
	}
	if err := checkKeys(m, "base", "nodes", "ranks_per_node", "scale", "seed"); err != nil {
		return err
	}
	if raw, ok := m["nodes"]; ok {
		n, err := asInt(raw, "base.nodes")
		if err != nil {
			return err
		}
		if n < 1 || n > 1<<20 {
			return fmt.Errorf("base.nodes: %d out of range", n)
		}
		sw.Base.Nodes = int(n)
	}
	if raw, ok := m["ranks_per_node"]; ok {
		n, err := asInt(raw, "base.ranks_per_node")
		if err != nil {
			return err
		}
		if n < 1 || n > 1<<16 {
			return fmt.Errorf("base.ranks_per_node: %d out of range", n)
		}
		sw.Base.RanksPerNode = int(n)
	}
	if raw, ok := m["scale"]; ok {
		s, err := asFloat(raw, "base.scale")
		if err != nil {
			return err
		}
		if s <= 0 || s > 1 {
			return fmt.Errorf("base.scale: %v out of (0, 1]", s)
		}
		sw.Base.Scale = s
	}
	if raw, ok := m["seed"]; ok {
		n, err := asInt(raw, "base.seed")
		if err != nil {
			return err
		}
		sw.Base.Seed = n
	}
	return nil
}

func (sw *Sweep) buildGrid(v interface{}) error {
	l, err := asList(v, "grid")
	if err != nil {
		return err
	}
	if len(l) == 0 {
		return fmt.Errorf("grid: at least one axis required")
	}
	if len(l) > maxAxes {
		return fmt.Errorf("grid: %d axes exceed the %d cap", len(l), maxAxes)
	}
	seen := map[string]bool{}
	points := 1
	for i, raw := range l {
		where := fmt.Sprintf("grid[%d]", i)
		m, err := asObj(raw, where)
		if err != nil {
			return err
		}
		if err := checkKeys(m, where, "param", "values"); err != nil {
			return err
		}
		ax := sweepAxis{}
		if ax.param, err = asString(m["param"], where+".param"); err != nil {
			return err
		}
		kind, ok := sweepAxes[ax.param]
		if !ok {
			known := make([]string, 0, len(sweepAxes))
			for k := range sweepAxes {
				known = append(known, k)
			}
			sort.Strings(known)
			return fmt.Errorf("%s.param: unknown parameter %q (have %v)", where, ax.param, known)
		}
		if seen[ax.param] {
			return fmt.Errorf("%s.param: duplicate axis %q", where, ax.param)
		}
		seen[ax.param] = true
		ax.kind = kind
		vals, err := asList(m["values"], where+".values")
		if err != nil {
			return err
		}
		if len(vals) == 0 {
			return fmt.Errorf("%s.values: at least one value required", where)
		}
		if len(vals) > maxValuesPerAxis {
			return fmt.Errorf("%s.values: %d values exceed the %d cap", where, len(vals), maxValuesPerAxis)
		}
		for j, rawVal := range vals {
			vw := fmt.Sprintf("%s.values[%d]", where, j)
			switch kind {
			case "choice":
				s, err := asString(rawVal, vw)
				if err != nil {
					return err
				}
				if ax.param == "staging" && s != "pfs" && s != "node-local" {
					return fmt.Errorf("%s: staging wants pfs or node-local, got %q", vw, s)
				}
				ax.labels = append(ax.labels, s)
			case "size":
				n, err := constVal(rawVal, vw)
				if err != nil {
					return err
				}
				if n < 0 {
					return fmt.Errorf("%s: negative size", vw)
				}
				ax.sizes = append(ax.sizes, n)
				ax.labels = append(ax.labels, fmt.Sprint(rawVal))
			case "bool":
				b, err := asBool(rawVal, vw)
				if err != nil {
					return err
				}
				ax.bools = append(ax.bools, b)
				ax.labels = append(ax.labels, fmt.Sprint(b))
			}
		}
		points *= len(ax.labels)
		if points > maxPoints {
			return fmt.Errorf("grid: more than %d points", maxPoints)
		}
		sw.axes = append(sw.axes, ax)
	}
	return nil
}

// WorkloadName reports what the sweep runs.
func (sw *Sweep) WorkloadName() string {
	if sw.doc != nil {
		return sw.doc.Name
	}
	return sw.workloadName
}

// NumPoints is the size of the expanded grid.
func (sw *Sweep) NumPoints() int {
	n := 1
	for _, ax := range sw.axes {
		n *= len(ax.labels)
	}
	return n
}

// Workload constructs a fresh workload instance for one point.
func (sw *Sweep) Workload() (Workload, error) {
	if sw.doc != nil {
		return sw.doc.Compile(), nil
	}
	return New(sw.workloadName)
}

// SweepSetting is one applied grid coordinate.
type SweepSetting struct {
	Param string `yaml:"param"`
	Value string `yaml:"value"`
}

// coords decodes a point index into per-axis value indexes, first axis
// slowest.
func (sw *Sweep) coords(point int) []int {
	c := make([]int, len(sw.axes))
	for i := len(sw.axes) - 1; i >= 0; i-- {
		n := len(sw.axes[i].labels)
		c[i] = point % n
		point /= n
	}
	return c
}

// Settings renders a grid point as applied parameter settings. Point 0 is
// the first value of every axis.
func (sw *Sweep) Settings(point int) []SweepSetting {
	coord := sw.coords(point)
	out := make([]SweepSetting, len(sw.axes))
	for i, ax := range sw.axes {
		out[i] = SweepSetting{Param: ax.param, Value: ax.labels[coord[i]]}
	}
	return out
}

// Apply overlays a run spec with the sweep's base and a grid point's axis
// values.
func (sw *Sweep) Apply(point int, sp *workloads.Spec) {
	if sw.Base.Nodes > 0 {
		sp.Nodes = sw.Base.Nodes
	}
	if sw.Base.RanksPerNode > 0 {
		sp.RanksPerNode = sw.Base.RanksPerNode
	}
	if sw.Base.Scale > 0 {
		sp.Scale = sw.Base.Scale
	}
	if sw.Base.Seed != 0 {
		sp.Seed = sw.Base.Seed
	}
	coord := sw.coords(point)
	for i, ax := range sw.axes {
		j := coord[i]
		switch ax.param {
		case "staging":
			sp.Optimized = ax.labels[j] == "node-local"
		case "stripe_size":
			sp.Storage.PFSStripeSize = ax.sizes[j]
		case "stdio_buffer":
			sp.Iface.StdioBufSize = ax.sizes[j]
		case "readahead":
			sp.Storage.ReadAhead = ax.sizes[j]
		case "hdf5_chunked":
			sp.Iface.HDF5Chunked = ax.bools[j]
		case "relaxed_consistency":
			sp.Storage.RelaxedConsistency = ax.bools[j]
		case "write_compression":
			sp.Iface.CompressionEnabled = ax.bools[j]
		case "cache":
			sp.Storage.CacheEnabled = ax.bools[j]
		}
	}
}
