package trace

// PoisonRecycled makes the column pools overwrite every slice they take
// back with a sentinel, and the tracer every log chunk, so a reader of
// rows the decoder did not write — or of a column its table already
// released — shows up as a wrong report instead of a plausible one.
func PoisonRecycled(on bool) { poisonRecycled.Store(on) }
