package trace

// PoisonRecycled makes the column pools overwrite every slice they take
// back with a sentinel, the payload pools every block payload, and the
// tracer every log chunk, so a reader of rows the decoder did not write —
// or of a column or payload already handed back — shows up as a wrong
// report instead of a plausible one.
func PoisonRecycled(on bool) { poisonRecycled.Store(on) }
