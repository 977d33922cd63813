package spec

import (
	"embed"
	"fmt"
	"sort"
	"strings"
)

// The golden specs are the CM1, CosmoFlow and Montage-MPI exemplars: the
// only description each has (catalog.go resolves the names to them). They
// double as the fuzzer's seed corpus and as worked examples of the grammar.
//
//go:embed golden/*.yaml
var goldenFS embed.FS

// GoldenNames lists the embedded golden specs in sorted order.
func GoldenNames() []string {
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
		return nil, fmt.Errorf("spec: no golden spec %q (have %v)", name, GoldenNames())
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
