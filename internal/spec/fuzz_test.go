package spec

import (
	"errors"
	"strings"
	"testing"
)

// FuzzSpecParse hardens the DSL's front door: arbitrary bytes through
// Parse and ParseSweep must surface as ErrBadSpec — never a panic, a
// hang, or an unbounded allocation — and whatever does parse must build
// its workload (Compile/DefaultSpec) without blowing up. The golden
// specs, a JSON variant, and a sweep document seed the corpus so the
// fuzzer starts from deep inside the grammar.
func FuzzSpecParse(f *testing.F) {
	for _, name := range Names() {
		data, err := GoldenBytes(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// Truncations and a bit flip: structurally close to valid.
		f.Add(data[:len(data)/2])
		mutated := append([]byte(nil), data...)
		if len(mutated) > 30 {
			mutated[len(mutated)/2] ^= 0xff
		}
		f.Add(mutated)
	}
	f.Add([]byte(`{"version": 1, "name": "j", "app": "j", "run": [{"compute": {"time": "1s"}}]}`))
	f.Add([]byte("version: 1\nname: s\ngrid:\n  - param: staging\n    values:\n      - pfs\nworkload: cm1\n"))
	f.Add([]byte("version: 1\nname: x\napp: x\nparams:\n  n:\n    expr: 1 ? 2 : 3\nrun:\n  - compute:\n      time: n\n"))
	f.Add([]byte(strings.Repeat("a", 100)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if doc, err := Parse(data); err == nil {
			w := doc.Compile()
			_ = w.DefaultSpec()
			if w.Name() == "" {
				t.Error("parsed doc compiled to a workload with no name")
			}
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("Parse error %v does not wrap ErrBadSpec", err)
		}
		if sw, err := ParseSweep(data); err == nil {
			if sw.NumPoints() < 1 || sw.NumPoints() > maxPoints {
				t.Errorf("parsed sweep has %d points, outside [1, %d]", sw.NumPoints(), maxPoints)
			}
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseSweep error %v does not wrap ErrBadSpec", err)
		}
	})
}
