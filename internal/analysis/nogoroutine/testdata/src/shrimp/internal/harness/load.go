package harness

// Every other harness file is outside the allowlist: a second pool
// (say, for prefix groups or load cells) must reuse parallel.go's.
func secondPool(run func()) {
	go run() // want `go statement outside the scheduler allowlist`
}
