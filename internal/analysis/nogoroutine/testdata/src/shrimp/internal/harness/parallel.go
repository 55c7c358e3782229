// Package harness fixture: parallel.go is the harness's one
// nogoroutine-allowlisted file (the worker pool runs whole simulations
// per goroutine, outside any engine), so its go statements pass.
package harness

func pool(run func()) {
	go run()
}
