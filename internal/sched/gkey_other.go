//go:build !amd64 && !arm64

package sched

import "runtime"

// gkey names the calling goroutine. Portability floor for architectures
// without a getg stub: the goroutine ID parsed out of the runtime.Stack
// header ("goroutine N [running]: ..."), which costs a traceback (µs, and
// the runtime's global print lock) per call.
func gkey() uintptr {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uintptr
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
