package server

// setTraceBodyLimit lowers the upload bound admit enforces until the
// returned function restores it.
func setTraceBodyLimit(n int64) (restore func()) {
	old := traceBodyLimit
	traceBodyLimit = n
	return func() { traceBodyLimit = old }
}
