package sim

import "time"

// Stamp reads the host clock, which no sim-side package may do.
func Stamp() int64 {
	return time.Now().UnixNano()
}
