//go:build race

package sweep

// raceEnabled reports that this binary runs under the race detector, whose
// instrumentation skews allocation accounting; alloc-bound tests skip.
const raceEnabled = true
