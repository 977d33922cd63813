package trace

// Context-aware I/O plumbing for the serving path: a long-running daemon
// must be able to abandon a characterization mid-trace when the request
// that asked for it is canceled or times out. Wrapping the log's reader
// puts the cancellation check on every physical read, so a scan's block
// reads stop at the next I/O rather than running the trace to completion.

import (
	"context"
	"errors"
	"io"
)

// ReaderAtContext wraps r so every ReadAt first observes ctx: once ctx is
// done, reads fail with ctx.Err(). BlockReader decode errors that stem
// from cancellation are passed through un-wrapped (not folded into
// ErrBadFormat), so callers can errors.Is them against context.Canceled /
// context.DeadlineExceeded.
func ReaderAtContext(ctx context.Context, r io.ReaderAt) io.ReaderAt {
	if ctx == nil || ctx == context.Background() {
		return r
	}
	return &ctxReaderAt{ctx: ctx, r: r}
}

type ctxReaderAt struct {
	ctx context.Context
	r   io.ReaderAt
}

func (c *ctxReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.ReadAt(p, off)
}

// IsCtxErr reports whether err is (or wraps) a context cancellation or
// deadline error — the "caller gave up" family, as opposed to corrupt
// input or real I/O failure.
func IsCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// readErr classifies a physical read failure: cancellation passes through
// bare (so errors.Is keeps working on it), anything else means malformed
// or truncated input and is folded into ErrBadFormat.
func readErr(err error) error {
	if IsCtxErr(err) {
		return err
	}
	return badf("%v", err)
}
