package core

import (
	"fmt"
	"strconv"
)

func itoa(n int) string { return strconv.Itoa(n) }

// sizeStr renders a byte count the way the paper's tables do: "4KB",
// "64KB", "1MB", "16MB", "1.5TB".
func sizeStr(b int64) string {
	switch {
	case b <= 0:
		return "0"
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return trimUnit(float64(b)/float64(1<<10), "KB")
	case b < 1<<30:
		return trimUnit(float64(b)/float64(1<<20), "MB")
	case b < 1<<40:
		return trimUnit(float64(b)/float64(1<<30), "GB")
	default:
		return trimUnit(float64(b)/float64(1<<40), "TB")
	}
}

func trimUnit(v float64, unit string) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d%s", int64(v), unit)
	}
	return fmt.Sprintf("%.1f%s", v, unit)
}

// SizeString exposes the table-style byte formatting for reports.
func SizeString(b int64) string { return sizeStr(b) }
