package spec

import (
	"fmt"
	"sort"

	"vani/internal/workloads"
)

// The catalog of exemplar workloads by name. Each has exactly one
// description: a golden spec where the DSL can say it, a Go generator where
// it cannot, never both.

// generators are the exemplars the DSL cannot describe yet.
var generators = map[string]func() workloads.Workload{
	"hacc":            func() workloads.Workload { return workloads.NewHACC() },
	"ior":             func() workloads.Workload { return workloads.NewIOR() },
	"jag":             func() workloads.Workload { return workloads.NewJAG() },
	"montage-pegasus": func() workloads.Workload { return workloads.NewMontagePegasus() },
}

// New constructs a workload by catalog name.
func New(name string) (workloads.Workload, error) {
	if ctor, ok := generators[name]; ok {
		return ctor(), nil
	}
	data, err := GoldenBytes(name)
	if err != nil {
		return nil, fmt.Errorf("spec: unknown workload %q (have %v)", name, Names())
	}
	doc, err := Parse(data)
	if err != nil {
		return nil, err
	}
	return doc.Compile(), nil
}

// Names lists the catalog in sorted order.
func Names() []string {
	names := GoldenNames()
	for n := range generators {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All constructs every workload of the catalog in name order.
func All() []workloads.Workload {
	var ws []workloads.Workload
	for _, n := range Names() {
		w, err := New(n)
		if err != nil {
			panic(err) // an embedded golden spec that does not parse
		}
		ws = append(ws, w)
	}
	return ws
}
