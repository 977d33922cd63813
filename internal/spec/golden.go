package spec

import (
	"embed"
	"fmt"
	"sort"
	"strings"
)

// The golden specs are the seven exemplars — CM1, HACC, CosmoFlow, JAG,
// Montage-MPI, Montage-Pegasus (the one tasks document) and the IOR probe —
// and they are the catalog of workloads by name: each is the only
// description its workload has, and New resolves every name to one. They
// double as the fuzzer's seed corpus and as worked examples of the grammar.
//
//go:embed golden/*.yaml
var goldenFS embed.FS

// Names lists the catalog in sorted order.
func Names() []string {
	entries, err := goldenFS.ReadDir("golden")
	if err != nil {
		panic(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".yaml"))
	}
	sort.Strings(names)
	return names
}

// GoldenBytes returns the raw YAML of an embedded golden spec.
func GoldenBytes(name string) ([]byte, error) {
	data, err := goldenFS.ReadFile("golden/" + name + ".yaml")
	if err != nil {
		return nil, fmt.Errorf("spec: unknown workload %q (have %v)", name, Names())
	}
	return data, nil
}

// Golden parses an embedded golden spec.
func Golden(name string) (*Doc, error) {
	data, err := GoldenBytes(name)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// New constructs a workload by catalog name: its golden spec, compiled.
func New(name string) (Workload, error) {
	doc, err := Golden(name)
	if err != nil {
		return Workload{}, err
	}
	return doc.Compile(), nil
}

// All constructs every workload of the catalog in name order.
func All() []Workload {
	var ws []Workload
	for _, n := range Names() {
		w, err := New(n)
		if err != nil {
			panic(err) // an embedded golden spec that does not parse
		}
		ws = append(ws, w)
	}
	return ws
}
